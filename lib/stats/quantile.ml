type t = {
  p : float;
  heights : float array; (* 5 markers *)
  positions : float array; (* actual marker positions, 1-based *)
  desired : float array; (* desired positions *)
  increments : float array;
  mutable n : int;
  initial : float array; (* first five observations, sorted lazily *)
}

let create p =
  if p <= 0. || p >= 1. then invalid_arg "Quantile.create: p outside (0,1)";
  { p;
    heights = Array.make 5 0.;
    positions = [| 1.; 2.; 3.; 4.; 5. |];
    desired = [| 1.; 1. +. (2. *. p); 1. +. (4. *. p); 3. +. (2. *. p); 5. |];
    increments = [| 0.; p /. 2.; p; (1. +. p) /. 2.; 1. |];
    n = 0;
    initial = Array.make 5 0. }

let quantile t = t.p

let count t = t.n

(* Piecewise-parabolic (P2) interpolation of marker i moved by d = +-1.
   Both interpolants are inlined into [add], so the marker adjustment
   passes no float through a call and [add] allocates nothing. *)
let[@inline] parabolic t i d =
  let q = t.heights and pos = t.positions in
  q.(i)
  +. d
     /. (pos.(i + 1) -. pos.(i - 1))
     *. (((pos.(i) -. pos.(i - 1) +. d)
          *. (q.(i + 1) -. q.(i))
          /. (pos.(i + 1) -. pos.(i)))
        +. ((pos.(i + 1) -. pos.(i) -. d)
           *. (q.(i) -. q.(i - 1))
           /. (pos.(i) -. pos.(i - 1))))

let[@inline] linear t i d =
  let q = t.heights and pos = t.positions in
  q.(i) +. (d *. (q.(i + int_of_float d) -. q.(i)) /. (pos.(i + int_of_float d) -. pos.(i)))

(* Insertion sort of the five first observations by [Float.compare],
   in place on the unboxed values: [Array.sort] takes the comparison as
   a closure and boxes every element it compares. *)
let sort_initial a =
  for i = 1 to 4 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && Float.compare a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Inlined, like [Welford.add], so a caller's float reaches the markers
   unboxed: [Measure.record_delivery] feeds one delay to three of these. *)
let[@inline] add t x =
  if t.n < 5 then begin
    t.initial.(t.n) <- x;
    t.n <- t.n + 1;
    if t.n = 5 then begin
      sort_initial t.initial;
      Array.blit t.initial 0 t.heights 0 5
    end
  end
  else begin
    t.n <- t.n + 1;
    let q = t.heights and pos = t.positions in
    (* Find the cell containing x, adjusting extremes. *)
    let k =
      if x < q.(0) then begin
        q.(0) <- x;
        0
      end
      else if x >= q.(4) then begin
        q.(4) <- x;
        3
      end
      else begin
        let i = ref 0 in
        while not (x < q.(!i + 1)) do
          incr i
        done;
        !i
      end
    in
    for i = k + 1 to 4 do
      pos.(i) <- pos.(i) +. 1.
    done;
    for i = 0 to 4 do
      t.desired.(i) <- t.desired.(i) +. t.increments.(i)
    done;
    (* Adjust interior markers toward their desired positions. *)
    for i = 1 to 3 do
      let d = t.desired.(i) -. pos.(i) in
      if
        (d >= 1. && pos.(i + 1) -. pos.(i) > 1.)
        || (d <= -1. && pos.(i - 1) -. pos.(i) < -1.)
      then begin
        let d = if d >= 0. then 1. else -1. in
        let candidate = parabolic t i d in
        let candidate =
          if q.(i - 1) < candidate && candidate < q.(i + 1) then candidate
          else linear t i d
        in
        q.(i) <- candidate;
        pos.(i) <- pos.(i) +. d
      end
    done
  end

let markers t = Array.copy t.heights

let value t =
  if t.n = 0 then nan
  else if t.n < 5 then begin
    (* Exact small-sample quantile (nearest-rank on a sorted copy). *)
    let sorted = Array.sub t.initial 0 t.n in
    Array.sort Float.compare sorted;
    let rank =
      int_of_float (Float.round (t.p *. float_of_int (t.n - 1)))
    in
    sorted.(max 0 (min (t.n - 1) rank))
  end
  else t.heights.(2)
