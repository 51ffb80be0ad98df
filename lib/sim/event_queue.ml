(* 4-ary min-heap as a structure of arrays: times live in an unboxed
   float array, sequence numbers, kinds and the two operands in parallel
   int arrays.  A row is plain data, so pushing or popping an event
   allocates nothing; the arrays double when full, which a simulation
   reaches during warm-up.  The clock is an all-float record for the
   same reason: writing the popped time into it stores an unboxed
   float.

   Why four children: most rows are far-future timers (one generation
   timer per flow, due seconds ahead) while most pushes are due a
   transmission or propagation time ahead, so a push climbs nearly the
   full depth and a pop sinks the far-future last row nearly the full
   depth too.  Four children per slot halve that depth, and the four
   children's times share a cache line.  Both sifts move a hole, not the
   row: the moving row is read once into locals, each level shifts one
   row into the hole, and the moving row is written once at its final
   slot.  Only slot indices cross calls, so no time is boxed on the
   way. *)

type clock = { mutable now : float }

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable kinds : int array;
  mutable as_ : int array;
  mutable bs : int array;
  mutable len : int;
  mutable next_seq : int;
  clock : clock;
  mutable popped_a : int;
  mutable popped_b : int;
}

let initial_capacity = 64

let create () =
  { times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    kinds = Array.make initial_capacity 0;
    as_ = Array.make initial_capacity 0;
    bs = Array.make initial_capacity 0;
    len = 0;
    next_seq = 0;
    clock = { now = 0. };
    popped_a = 0;
    popped_b = 0 }

let clock t = t.clock

let is_empty t = t.len = 0

let length t = t.len

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.kinds.(dst) <- t.kinds.(src);
  t.as_.(dst) <- t.as_.(src);
  t.bs.(dst) <- t.bs.(src)

(* The earlier of rows [i] and [j] in (time, seq) order.  The array
   types are spelled out so the comparisons compile to float and int
   compares, not the polymorphic one. *)
let[@inline] earlier (times : float array) (seqs : int array) i j =
  let ti = times.(i) and tj = times.(j) in
  if tj < ti || (tj = ti && seqs.(j) < seqs.(i)) then j else i

(* Place a new row whose time is already in [times.(len)].  Its seq is
   the largest in the heap, so it rises only past strictly later rows:
   ties keep it below, which is the FIFO tie-break. *)
let sift_up t ~kind ~a ~b =
  let times = t.times in
  let i = t.len in
  let time = times.(i) in
  let hole = ref i in
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 4 in
    if time < times.(parent) then begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
    else rising := false
  done;
  let h = !hole in
  times.(h) <- time;
  t.seqs.(h) <- t.next_seq;
  t.kinds.(h) <- kind;
  t.as_.(h) <- a;
  t.bs.(h) <- b;
  t.next_seq <- t.next_seq + 1;
  t.len <- i + 1
[@@hot_path]

(* Refill the root's hole with the row in slot [t.len] (the old last
   row, already outside the heap): at each level the earliest of the
   hole's up to four children moves up while it precedes that row. *)
let sift_down t =
  let times = t.times and seqs = t.seqs in
  let len = t.len in
  let time = times.(len) and seq = seqs.(len) in
  let kind = t.kinds.(len) and a = t.as_.(len) and b = t.bs.(len) in
  let hole = ref 0 in
  let sinking = ref true in
  while !sinking do
    let first = (4 * !hole) + 1 in
    if first >= len then sinking := false
    else begin
      let c =
        if first + 3 < len then
          earlier times seqs
            (earlier times seqs first (first + 1))
            (earlier times seqs (first + 2) (first + 3))
        else begin
          let c = ref first in
          for k = first + 1 to len - 1 do
            c := earlier times seqs !c k
          done;
          !c
        end
      in
      let tc = times.(c) in
      if tc < time || (tc = time && seqs.(c) < seq) then begin
        move t ~src:c ~dst:!hole;
        hole := c
      end
      else sinking := false
    end
  done;
  let h = !hole in
  times.(h) <- time;
  seqs.(h) <- seq;
  t.kinds.(h) <- kind;
  t.as_.(h) <- a;
  t.bs.(h) <- b
[@@hot_path]

(* Out of line: the doubling allocates, and inlining it would put those
   (cold) sites inside the A0xx-gated push. *)
let[@inline never] grow t =
  let capacity = 2 * Array.length t.times in
  let ints a =
    let b = Array.make capacity 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  let times = Array.make capacity 0. in
  Array.blit t.times 0 times 0 t.len;
  t.times <- times;
  t.seqs <- ints t.seqs;
  t.kinds <- ints t.kinds;
  t.as_ <- ints t.as_;
  t.bs <- ints t.bs

(* The two entry points write the new row's time into [times.(len)]
   themselves, so a computed time never passes through a call boxed. *)
let add t ~time ~kind ~a ~b =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time;
  sift_up t ~kind ~a ~b
[@@hot_path]

let[@inline] add_after t ~after ~kind ~a ~b =
  let time = t.clock.now +. after in
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time;
  sift_up t ~kind ~a ~b
[@@hot_path]

let due t horizon = t.len > 0 && t.times.(0) <= horizon

let pop_min t =
  if t.len = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let kind = t.kinds.(0) in
  t.clock.now <- t.times.(0);
  t.popped_a <- t.as_.(0);
  t.popped_b <- t.bs.(0);
  t.len <- t.len - 1;
  if t.len > 0 then sift_down t;
  kind
[@@hot_path]

let popped_a t = t.popped_a

let popped_b t = t.popped_b

let advance_to t time = if time > t.clock.now then t.clock.now <- time
