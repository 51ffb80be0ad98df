(* Two tiers with one order.  A row due within about a second of the
   clock sits in a time wheel (a calendar queue, R. Brown, CACM 1988);
   every other row sits in a 4-ary min-heap.  [pop_min] takes the
   earlier of the two heads by (time, seq), so rows pop in exactly the
   order one heap alone would give them.

   Why two tiers: on the ARPANET peak matrix the queue holds about 3,400
   rows, 3,192 of them per-flow generation timers due seconds ahead,
   while more than nine pops in ten are transmission completions and
   arrivals due milliseconds ahead.  In the heap alone each of those
   climbed and sank through every far-future timer; in the wheel a push
   walks a few rows of one bucket and a pop unlinks a bucket's head.

   The wheel.  Bucket b holds the rows with ⌊time·2¹⁰⌋ = b, as a list
   sorted by (time, seq) threaded through a struct-of-arrays row pool
   (the pool's [w_next] column links a bucket's rows and, for free rows,
   the free list).  The 1,024 buckets form a ring over the absolute
   bucket numbers [base, base + 1,024), about one second, so each ring
   slot holds at most one bucket number.  The rules that keep the two
   tiers in one order:
   - A row enters the wheel only if its bucket lies in the window, and
     its place in the bucket is at most [walk_cap] list steps from the
     head.  Every other row goes to the heap: rows before [base], rows
     past the horizon (an infinite time among them: the window test is
     made on the float time·2¹⁰ before converting it), and rows that
     would sort deep into a crowded bucket.  The cap bounds what a push
     costs on any input; a row sorting past it costs a heap push.
   - A new row follows every row of its bucket due at or before it:
     its seq is the largest, so equal times stay first-in, first-out.
     A row due no earlier than the bucket's tail is appended without a
     walk.
   - [base] only rises, and only at a pop: every remaining row is due
     no earlier than the popped one, so no wheel row lies in a bucket
     before the popped row's, which becomes [base].  [advance_to] moves
     only the clock, so it cannot strand a pending row below [base].
   - A scan cursor stays between [base] and the earliest non-empty
     bucket: a pop that raises [base] raises it too, a push into an
     earlier bucket lowers it, and finding the wheel's head moves it
     forward over empty buckets.

   Why these constants: the width (2⁻¹⁰ s) and the count (1,024) are
   powers of two, so time·2¹⁰ is exact in binary floating point and
   monotone in time (rows in bucket order are in time order), and a
   ring slot is a mask.  A replay of the DES's own queue operations ran
   within noise of the same speed for widths from 2⁻⁸ to 2⁻¹² s and
   counts from 512 to 8,192 (DESIGN.md §6), so neither is a knob.

   The heap.  Four children per slot halve a binary heap's depth, and
   the four children's times share a cache line.  Both sifts move a
   hole, not the row: the moving row is read once into locals, each
   level shifts one row into the hole, and the moving row is written
   once at its final slot.

   Nothing on the push or pop path allocates.  Each tier's rows are
   plain data in unboxed float and int columns; a new row's time is
   written into its column before any call, so only ints cross calls
   and no time is boxed.  The heap's columns and the row pool double
   out of line when full, which a simulation reaches in warm-up; the
   two 1,024-slot bucket arrays are fixed.  The clock is an all-float
   record, so writing the popped time into it stores an unboxed float. *)

type clock = { mutable now : float }

type t = {
  (* The heap: row [i]'s columns, [len] rows. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable kinds : int array;
  mutable as_ : int array;
  mutable bs : int array;
  mutable len : int;
  (* The wheel: the row pool's columns, [w_len] rows in buckets. *)
  mutable w_times : float array;
  mutable w_seqs : int array;
  mutable w_kinds : int array;
  mutable w_as : int array;
  mutable w_bs : int array;
  mutable w_next : int array; (* next row in the bucket or free list; -1 ends *)
  mutable free : int; (* first free pool row, -1 when none *)
  mutable w_len : int;
  heads : int array; (* per ring slot: first row, -1 when empty *)
  tails : int array; (* per ring slot: last row, read only when non-empty *)
  mutable base : int; (* the window is buckets [base, base + buckets) *)
  mutable cursor : int; (* base <= cursor <= the earliest non-empty bucket *)
  mutable next_seq : int;
  clock : clock;
  mutable popped_a : int;
  mutable popped_b : int;
}

let initial_capacity = 64

(* Buckets per simulated second, and buckets in the ring. *)
let rate = 1024.

let buckets = 1024

let ring_mask = buckets - 1

(* The most list steps from a bucket's head to a new row's place. *)
let walk_cap = 64

(* [base] stays below 2⁵², where a float holds every integer, so the
   window's bounds convert to floats exactly. *)
let base_limit = 0x1p52

(* Chain pool rows [lo, hi) onto the free list ahead of [next]. *)
let link_free t ~lo ~hi ~next =
  for r = lo to hi - 1 do
    t.w_next.(r) <- (if r + 1 < hi then r + 1 else next)
  done

let create () =
  let n = initial_capacity in
  let t =
    { times = Array.make n 0.;
      seqs = Array.make n 0;
      kinds = Array.make n 0;
      as_ = Array.make n 0;
      bs = Array.make n 0;
      len = 0;
      w_times = Array.make n 0.;
      w_seqs = Array.make n 0;
      w_kinds = Array.make n 0;
      w_as = Array.make n 0;
      w_bs = Array.make n 0;
      w_next = Array.make n 0;
      free = 0;
      w_len = 0;
      heads = Array.make buckets (-1);
      tails = Array.make buckets (-1);
      base = 0;
      cursor = 0;
      next_seq = 0;
      clock = { now = 0. };
      popped_a = 0;
      popped_b = 0 }
  in
  link_free t ~lo:0 ~hi:n ~next:(-1);
  t

let clock t = t.clock

let is_empty t = t.len = 0 && t.w_len = 0

let length t = t.len + t.w_len

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

(* Out of line for the same reason.  Only called with no free row, so
   every old row is linked into some bucket and keeps its index. *)
let[@inline never] grow_pool t =
  let n = Array.length t.w_times in
  let capacity = 2 * n in
  let ints a =
    let b = Array.make capacity 0 in
    Array.blit a 0 b 0 n;
    b
  in
  let times = Array.make capacity 0. in
  Array.blit t.w_times 0 times 0 n;
  t.w_times <- times;
  t.w_seqs <- ints t.w_seqs;
  t.w_kinds <- ints t.w_kinds;
  t.w_as <- ints t.w_as;
  t.w_bs <- ints t.w_bs;
  t.w_next <- ints t.w_next;
  link_free t ~lo:n ~hi:capacity ~next:(-1);
  t.free <- n

(* Link the first free pool row, whose time is already written, into
   [bucket] after every row due at or before it, or hand the row to the
   heap when its place is more than [walk_cap] steps from the head. *)
let wheel_push t bucket ~kind ~a ~b =
  let times = t.w_times and next = t.w_next in
  let r = t.free in
  let time = times.(r) in
  let slot = bucket land ring_mask in
  let head = t.heads.(slot) in
  (* [prev]: the row the new one follows, -1 to become the head. *)
  let prev = ref (-1) and fits = ref true in
  if head >= 0 then begin
    let tail = t.tails.(slot) in
    if times.(tail) <= time then prev := tail
    else if times.(head) <= time then begin
      (* The tail is due after [time], so the walk stops short of it. *)
      let steps = ref 0 in
      prev := head;
      while !steps < walk_cap && times.(next.(!prev)) <= time do
        prev := next.(!prev);
        incr steps
      done;
      fits := times.(next.(!prev)) > time
    end
  end;
  if !fits then begin
    let p = !prev in
    t.free <- next.(r);
    if p < 0 then begin
      next.(r) <- head;
      t.heads.(slot) <- r;
      if head < 0 then t.tails.(slot) <- r
    end
    else begin
      next.(r) <- next.(p);
      next.(p) <- r;
      if next.(r) < 0 then t.tails.(slot) <- r
    end;
    t.w_seqs.(r) <- t.next_seq;
    t.w_kinds.(r) <- kind;
    t.w_as.(r) <- a;
    t.w_bs.(r) <- b;
    t.next_seq <- t.next_seq + 1;
    t.w_len <- t.w_len + 1;
    if bucket < t.cursor then t.cursor <- bucket
  end
  else begin
    (* Row [r] stays free. *)
    if t.len = Array.length t.times then grow t;
    t.times.(t.len) <- time;
    sift_up t ~kind ~a ~b
  end
[@@hot_path]

(* [add] and [add_after] form the time themselves and inline this, so
   a computed time never passes through a call boxed. *)
let[@inline] push t time ~kind ~a ~b =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  let f = time *. rate in
  if f >= Float.of_int t.base && f < Float.of_int (t.base + buckets) then begin
    if t.free < 0 then grow_pool t;
    t.w_times.(t.free) <- time;
    wheel_push t (Float.to_int f) ~kind ~a ~b
  end
  else begin
    if t.len = Array.length t.times then grow t;
    t.times.(t.len) <- time;
    sift_up t ~kind ~a ~b
  end

let add t ~time ~kind ~a ~b = push t time ~kind ~a ~b [@@hot_path]

let[@inline] add_after t ~after ~kind ~a ~b =
  push t (t.clock.now +. after) ~kind ~a ~b
[@@hot_path]

(* The wheel's earliest row: move the cursor to the first non-empty
   bucket.  Only called with rows in the wheel, which all lie in the
   window at or after the cursor, so the scan ends inside it. *)
let[@inline] wheel_head t =
  let heads = t.heads in
  let c = ref t.cursor in
  while heads.(!c land ring_mask) < 0 do
    incr c
  done;
  t.cursor <- !c;
  heads.(!c land ring_mask)

(* Unlink the head of the cursor's bucket, which [wheel_head] found,
   and return its kind.  The popped row's bucket is the cursor, so
   [base] rises to it. *)
let wheel_pop t =
  let slot = t.cursor land ring_mask in
  let r = t.heads.(slot) in
  t.heads.(slot) <- t.w_next.(r);
  t.w_next.(r) <- t.free;
  t.free <- r;
  t.w_len <- t.w_len - 1;
  t.clock.now <- t.w_times.(r);
  t.popped_a <- t.w_as.(r);
  t.popped_b <- t.w_bs.(r);
  if t.cursor > t.base then t.base <- t.cursor;
  t.w_kinds.(r)
[@@hot_path]

(* Whether wheel row [r] precedes the heap's root. *)
let[@inline] wheel_leads t r =
  t.len = 0
  ||
  let tw = t.w_times.(r) and th = t.times.(0) in
  tw < th || (tw = th && t.w_seqs.(r) < t.seqs.(0))

let due t horizon =
  (t.len > 0 && t.times.(0) <= horizon)
  || (t.w_len > 0 && t.w_times.(wheel_head t) <= horizon)

let pop_min t =
  if t.w_len > 0 && wheel_leads t (wheel_head t) then wheel_pop t
  else begin
    if t.len = 0 then invalid_arg "Event_queue.pop_min: empty queue";
    let kind = t.kinds.(0) in
    let time = t.times.(0) in
    t.clock.now <- time;
    t.popped_a <- t.as_.(0);
    t.popped_b <- t.bs.(0);
    (* No row is due before this one, so [base] may rise to its
       bucket. *)
    let f = time *. rate in
    if f >= Float.of_int (t.base + 1) && f < base_limit then begin
      t.base <- Float.to_int f;
      if t.cursor < t.base then t.cursor <- t.base
    end;
    t.len <- t.len - 1;
    if t.len > 0 then sift_down t;
    kind
  end
[@@hot_path]

let popped_a t = t.popped_a

let popped_b t = t.popped_b

let advance_to t time = if time > t.clock.now then t.clock.now <- time
