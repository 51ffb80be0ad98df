(* Struct-of-arrays rings, one per recording domain.  The hot path is
   [emit]: resolve the caller's ring from an atomic domain→slot map (two
   loads once registered), then write timestamp + packed code + two args
   at [written land mask] and bump [written].  No allocation: the only
   construction happens on a domain's first event (ring registration) and
   at [intern] time, both cold and mutex-protected.

   Publication safety: [register] appends the new ring to [t.rings]
   (plain field) *before* publishing the owning domain's slot through the
   atomic [slot_map]; a reader that observes the slot therefore observes
   a rings array containing it. *)

type clock = Untimed | Wall | Fn of (unit -> float)

type kind = Begin | End | Instant | Counter

type ring = {
  ts : float array;
  code : int array; (* name id lsl 2 lor kind *)
  arg_a : int array;
  arg_b : int array;
  mutable written : int; (* events ever; ring index = written land mask *)
}

type t = {
  on : bool;
  cap : int; (* power of two *)
  mask : int;
  clk : clock;
  mutable rings : ring array; (* grow-only; slot = array index *)
  slot_map : int array Atomic.t; (* domain id -> slot, -1 = unregistered *)
  lock : Mutex.t;
  mutable names : string array;
  mutable name_count : int;
}

let null =
  { on = false;
    cap = 16;
    mask = 15;
    clk = Untimed;
    rings = [||];
    slot_map = Atomic.make [||];
    lock = Mutex.create ();
    names = [||];
    name_count = 0 }

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let make_ring cap =
  { ts = Array.make cap 0.;
    code = Array.make cap 0;
    arg_a = Array.make cap 0;
    arg_b = Array.make cap 0;
    written = 0 }

(* Cold: called under [t.lock] or single-threaded at creation. *)
let register_locked t d =
  let slot = Array.length t.rings in
  let r = make_ring t.cap in
  let rings = Array.make (slot + 1) r in
  Array.blit t.rings 0 rings 0 slot;
  t.rings <- rings;
  let old = Atomic.get t.slot_map in
  let len = max (d + 1) (Array.length old) in
  let m = Array.make len (-1) in
  Array.blit old 0 m 0 (Array.length old);
  m.(d) <- slot;
  Atomic.set t.slot_map m;
  r

let create ?(capacity = 65536) ?(clock = Untimed) () =
  let cap = pow2 (max 16 capacity) 16 in
  let t =
    { on = true;
      cap;
      mask = cap - 1;
      clk = clock;
      rings = [||];
      slot_map = Atomic.make [||];
      lock = Mutex.create ();
      names = Array.make 8 "";
      name_count = 0 }
  in
  (* The creating domain always owns slot 0, so single-domain traces are
     fully deterministic and the first event never allocates. *)
  ignore (register_locked t (Domain.self () :> int));
  t

let enabled t = t.on

let capacity t = t.cap

let clock t = t.clk

let register t d =
  Mutex.lock t.lock;
  let map = Atomic.get t.slot_map in
  let r =
    if d < Array.length map && map.(d) >= 0 then t.rings.(map.(d))
    else register_locked t d
  in
  Mutex.unlock t.lock;
  r

let[@inline] ring_for t =
  let d = (Domain.self () :> int) in
  let map = Atomic.get t.slot_map in
  if d < Array.length map && Array.unsafe_get map d >= 0 then
    Array.unsafe_get t.rings (Array.unsafe_get map d)
  else register t d

let[@inline] now = function
  | Untimed -> 0.
  | Wall -> Unix.gettimeofday ()
  | Fn f -> f ()

(* [kind] is the low two bits of the packed code: 0 begin, 1 end,
   2 instant, 3 counter. *)
let emit t kind id a b =
  let r = ring_for t in
  let i = r.written land t.mask in
  Array.unsafe_set r.ts i
    (match t.clk with Untimed -> float_of_int r.written | clk -> now clk);
  Array.unsafe_set r.code i ((id lsl 2) lor kind);
  Array.unsafe_set r.arg_a i a;
  Array.unsafe_set r.arg_b i b;
  r.written <- r.written + 1
[@@hot_path]

let[@inline] span_begin t id = if t.on then emit t 0 id 0 0 [@@hot_path]

let[@inline] span_begin_range t id ~lo ~hi = if t.on then emit t 0 id lo hi
[@@hot_path]

let[@inline] span_end t id = if t.on then emit t 1 id 0 0 [@@hot_path]

let[@inline] instant t id ~arg = if t.on then emit t 2 id arg 0 [@@hot_path]

let[@inline] counter t id ~value = if t.on then emit t 3 id value 0
[@@hot_path]

let intern t name =
  if not t.on then 0
  else begin
    Mutex.lock t.lock;
    let id = ref (-1) in
    for i = 0 to t.name_count - 1 do
      if !id < 0 && String.equal t.names.(i) name then id := i
    done;
    let id =
      if !id >= 0 then !id
      else begin
        if t.name_count = Array.length t.names then begin
          let names = Array.make (2 * t.name_count) "" in
          Array.blit t.names 0 names 0 t.name_count;
          t.names <- names
        end;
        t.names.(t.name_count) <- name;
        t.name_count <- t.name_count + 1;
        t.name_count - 1
      end
    in
    Mutex.unlock t.lock;
    id
  end

let pool_probe t =
  let fallback = intern t "pool_chunk" in
  { Routing_metric.Domain_pool.chunk_begin =
      (fun ~label ~lo ~hi ->
        span_begin_range t (if label >= 0 then label else fallback) ~lo ~hi);
    chunk_end =
      (fun ~label ~lo ~hi ->
        ignore lo;
        ignore hi;
        span_end t (if label >= 0 then label else fallback)) }

let slots t = Array.length t.rings

let slot_recorded t slot = t.rings.(slot).written

let slot_dropped t slot = max 0 (t.rings.(slot).written - t.cap)

let dropped t =
  let d = ref 0 in
  for s = 0 to slots t - 1 do
    d := !d + slot_dropped t s
  done;
  !d

let name t id = if id >= 0 && id < t.name_count then t.names.(id) else "?"

let iter_slot t slot f =
  let r = t.rings.(slot) in
  let retained = min r.written t.cap in
  for k = r.written - retained to r.written - 1 do
    let i = k land t.mask in
    let code = r.code.(i) in
    let kind =
      match code land 3 with
      | 0 -> Begin
      | 1 -> End
      | 2 -> Instant
      | _ -> Counter
    in
    f ~ts:r.ts.(i) ~kind ~name:(code lsr 2) ~a:r.arg_a.(i) ~b:r.arg_b.(i)
  done
