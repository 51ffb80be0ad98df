module Rng = Routing_stats.Rng

type t = { n : int; demand : float array (* row-major, n*n *) }

let create ~nodes =
  if nodes < 0 then invalid_arg "Traffic_matrix.create";
  { n = nodes; demand = Array.make (nodes * nodes) 0. }

let nodes t = t.n

let idx t src dst = (Node.to_int src * t.n) + Node.to_int dst

let get t ~src ~dst = t.demand.(idx t src dst)

let set t ~src ~dst v =
  if not (Node.equal src dst) then t.demand.(idx t src dst) <- Float.max 0. v

let add t ~src ~dst v = set t ~src ~dst (get t ~src ~dst +. v)

let copy t = { t with demand = Array.copy t.demand }

(* Plain loops, not [Array.map] or [Array.fold_left]: a float passed
   through a closure is boxed once per entry. *)
let scale t factor =
  let demand = Array.create_float (Array.length t.demand) in
  for i = 0 to Array.length demand - 1 do
    demand.(i) <- t.demand.(i) *. factor
  done;
  { t with demand }

let valid_scale s = Float.is_finite s && s > 0.

let total_bps t =
  let sum = ref 0. in
  for i = 0 to Array.length t.demand - 1 do
    sum := !sum +. t.demand.(i)
  done;
  !sum

let flow_count t =
  let count = ref 0 in
  for i = 0 to Array.length t.demand - 1 do
    if t.demand.(i) > 0. then incr count
  done;
  !count

let iter t f =
  for s = 0 to t.n - 1 do
    for d = 0 to t.n - 1 do
      let v = t.demand.((s * t.n) + d) in
      if v > 0. then f ~src:(Node.of_int s) ~dst:(Node.of_int d) v
    done
  done

let flows t =
  let len = flow_count t in
  let srcs = Array.make len 0
  and dsts = Array.make len 0
  and demands = Array.make len 0. in
  let k = ref 0 in
  for s = 0 to t.n - 1 do
    for d = 0 to t.n - 1 do
      let v = t.demand.((s * t.n) + d) in
      if v > 0. then begin
        srcs.(!k) <- s;
        dsts.(!k) <- d;
        demands.(!k) <- v;
        incr k
      end
    done
  done;
  (srcs, dsts, demands)

let offered_from t node =
  let s = Node.to_int node in
  let sum = ref 0. in
  for d = 0 to t.n - 1 do
    sum := !sum +. t.demand.((s * t.n) + d)
  done;
  !sum

(* Only the entries [iter] visits, in its order, so the sum is bit for
   bit what accumulating [iter]'s demands per destination gives, even
   where [scale] by a negative factor or NaN left entries [iter] skips. *)
let offered_to t node =
  let d = Node.to_int node in
  let sum = ref 0. in
  for s = 0 to t.n - 1 do
    let v = t.demand.((s * t.n) + d) in
    if v > 0. then sum := !sum +. v
  done;
  !sum

let uniform ~nodes ~pair_bps =
  let t = create ~nodes in
  for s = 0 to nodes - 1 do
    for d = 0 to nodes - 1 do
      if s <> d then set t ~src:(Node.of_int s) ~dst:(Node.of_int d) pair_bps
    done
  done;
  t

let gravity rng ~nodes ~total_bps =
  let t = create ~nodes in
  if nodes > 1 && total_bps > 0. then begin
    (* Log-uniform masses over one decade: a few big hosts, many small. *)
    let mass = Array.init nodes (fun _ -> 10. ** Rng.float rng 1.) in
    let weight = ref 0. in
    for s = 0 to nodes - 1 do
      for d = 0 to nodes - 1 do
        if s <> d then weight := !weight +. (mass.(s) *. mass.(d))
      done
    done;
    for s = 0 to nodes - 1 do
      for d = 0 to nodes - 1 do
        if s <> d then
          set t ~src:(Node.of_int s) ~dst:(Node.of_int d)
            (total_bps *. mass.(s) *. mass.(d) /. !weight)
      done
    done
  end;
  t

let hotspot rng ~nodes ~background_bps ~hotspots =
  let t = create ~nodes in
  for s = 0 to nodes - 1 do
    for d = 0 to nodes - 1 do
      if s <> d then begin
        (* Jitter the background +-20% so no two flows are exactly equal,
           avoiding artificial path-length ties. *)
        let jitter = Rng.uniform rng ~lo:0.8 ~hi:1.2 in
        set t ~src:(Node.of_int s) ~dst:(Node.of_int d) (background_bps *. jitter)
      end
    done
  done;
  List.iter (fun (src, dst, bps) -> add t ~src ~dst bps) hotspots;
  t

let pp_summary ppf t =
  Format.fprintf ppf "%d flows, %.1f kb/s total" (flow_count t)
    (total_bps t /. 1000.)
