(* Binary min-heap as a structure of arrays: times live in an unboxed
   float array, sequence numbers, kinds and the two operands in parallel
   int arrays.  A row is plain data, so pushing or popping an event
   allocates nothing; the arrays double when full, which a simulation
   reaches during warm-up.  The clock is an all-float record for the
   same reason: writing the popped time into it stores an unboxed
   float. *)

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

let before t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap_int (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  swap_int t.seqs i j;
  swap_int t.kinds i j;
  swap_int t.as_ i j;
  swap_int t.bs i j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let first = ref i in
  if left < t.len && before t left !first then first := left;
  if right < t.len && before t right !first then first := right;
  if !first <> i then begin
    swap t i !first;
    sift_down t !first
  end

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

(* The new row's time is already in [times.(len)]: fill in the rest and
   restore the heap.  The two entry points write the time themselves, so
   a computed time never passes through a call boxed. *)
let push_row t ~kind ~a ~b =
  let i = t.len in
  t.seqs.(i) <- t.next_seq;
  t.kinds.(i) <- kind;
  t.as_.(i) <- a;
  t.bs.(i) <- b;
  t.next_seq <- t.next_seq + 1;
  t.len <- i + 1;
  sift_up t i

let add t ~time ~kind ~a ~b =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time;
  push_row t ~kind ~a ~b
[@@hot_path]

let[@inline] add_after t ~after ~kind ~a ~b =
  let time = t.clock.now +. after in
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time;
  push_row t ~kind ~a ~b
[@@hot_path]

let due t horizon = t.len > 0 && t.times.(0) <= horizon

let pop_min t =
  if t.len = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let kind = t.kinds.(0) in
  t.clock.now <- t.times.(0);
  t.popped_a <- t.as_.(0);
  t.popped_b <- t.bs.(0);
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.kinds.(0) <- t.kinds.(last);
    t.as_.(0) <- t.as_.(last);
    t.bs.(0) <- t.bs.(last);
    sift_down t 0
  end;
  kind
[@@hot_path]

let popped_a t = t.popped_a

let popped_b t = t.popped_b

let advance_to t time = if time > t.clock.now then t.clock.now <- time
