(* One-level radix heap over non-negative int keys.

   Bucket [0] holds entries whose key equals [last] (the key most recently
   popped); bucket [b > 0] holds entries whose key first differs from
   [last] at bit [b - 1].  Pops drain bucket 0; when it is empty the first
   non-empty bucket is scanned for its lexicographic [(key, tie)] minimum,
   [last] advances to that key, and the bucket's entries are redistributed
   — each lands in a strictly lower bucket (they agreed with the old [last]
   above their bucket's bit, and the new [last] is one of them), which is
   where the amortized O(bits) bound comes from.

   Entries live in one pool of parallel int columns; a bucket is a linked
   list of pool slots threaded through [next], and popped slots go on a
   free list threaded the same way.  Redistribution relinks slots without
   copying them, so a run never holds more slots than it has live
   entries: a queue reserved for that bound never grows.  Growth, the
   fallback, doubles the pool out of line. *)

(* 63-bit ints: keys differ from [last] somewhere in bits 0..62, so
   buckets 0..63 cover every case. *)
let bucket_count = 64

type t = {
  mutable keys : int array;
  mutable ties : int array;
  mutable vals : int array;
  mutable next : int array; (* bucket or free-list successor; -1 ends *)
  heads : int array; (* per bucket: first slot, -1 when empty *)
  mutable free : int; (* first free slot, -1 when the pool is full *)
  mutable last : int;
  mutable length : int;
}

let create () =
  { keys = [||];
    ties = [||];
    vals = [||];
    next = [||];
    heads = Array.make bucket_count (-1);
    free = -1;
    last = 0;
    length = 0 }

let capacity t = Array.length t.keys

(* Widen every column to [cap] slots and put the new ones on the free
   list.  Out of line: the only allocation, kept off the push path. *)
let[@inline never] grow_to t cap =
  let old = Array.length t.keys in
  let widen a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 old;
    b
  in
  t.keys <- widen t.keys;
  t.ties <- widen t.ties;
  t.vals <- widen t.vals;
  t.next <- widen t.next;
  for i = old to cap - 1 do
    t.next.(i) <- (if i + 1 < cap then i + 1 else t.free)
  done;
  t.free <- old

let reserve t n = if n > Array.length t.keys then grow_to t n

let is_empty t = t.length = 0

let length t = t.length

let last t = t.last

(* Index of the highest set bit of [x > 0]. *)
let msb x =
  let r = ref 0 in
  let x = ref x in
  if !x lsr 32 <> 0 then begin r := !r + 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin r := !r + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin r := !r + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin r := !r + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin r := !r + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then r := !r + 1;
  !r

let bucket_of t key =
  let d = key lxor t.last in
  if d = 0 then 0 else msb d + 1

let push t ~key ~tie v =
  if key < t.last then
    invalid_arg
      (Printf.sprintf "Radix_queue.push: key %d below the monotone floor %d"
         key t.last);
  if t.free < 0 then grow_to t (max 16 (2 * Array.length t.keys));
  let e = t.free in
  t.free <- t.next.(e);
  t.keys.(e) <- key;
  t.ties.(e) <- tie;
  t.vals.(e) <- v;
  let b = bucket_of t key in
  t.next.(e) <- t.heads.(b);
  t.heads.(b) <- e;
  t.length <- t.length + 1
[@@hot_path]

type slot = { mutable key : int; mutable tie : int; mutable value : int }

let slot () = { key = 0; tie = 0; value = 0 }

let pop_min_into t (out : slot) =
  if t.length = 0 then false
  else begin
    if t.heads.(0) < 0 then begin
      (* Advance [last] to the smallest key present and relink its
         bucket's slots into the buckets the new floor assigns them. *)
      let bi = ref 1 in
      while t.heads.(!bi) < 0 do incr bi done;
      let first = t.heads.(!bi) in
      let min_key = ref t.keys.(first) in
      let e = ref t.next.(first) in
      while !e >= 0 do
        if t.keys.(!e) < !min_key then min_key := t.keys.(!e);
        e := t.next.(!e)
      done;
      t.last <- !min_key;
      t.heads.(!bi) <- -1;
      e := first;
      while !e >= 0 do
        let cur = !e in
        e := t.next.(cur);
        let b = bucket_of t t.keys.(cur) in
        t.next.(cur) <- t.heads.(b);
        t.heads.(b) <- cur
      done
    end;
    (* Bucket 0: every key equals [last]; the tie decides. *)
    let best = ref t.heads.(0) and best_prev = ref (-1) in
    let prev = ref t.heads.(0) and e = ref t.next.(t.heads.(0)) in
    while !e >= 0 do
      if t.ties.(!e) < t.ties.(!best) then begin
        best := !e;
        best_prev := !prev
      end;
      prev := !e;
      e := t.next.(!e)
    done;
    let b = !best in
    out.key <- t.keys.(b);
    out.tie <- t.ties.(b);
    out.value <- t.vals.(b);
    if !best_prev < 0 then t.heads.(0) <- t.next.(b)
    else t.next.(!best_prev) <- t.next.(b);
    t.next.(b) <- t.free;
    t.free <- b;
    t.length <- t.length - 1;
    true
  end
[@@hot_path]

let pop_min t =
  let s = slot () in
  if pop_min_into t s then Some (s.key, s.tie, s.value) else None

(* Every live slot goes back on the free list; the pool keeps its size. *)
let clear t =
  for b = 0 to bucket_count - 1 do
    let e = ref t.heads.(b) in
    while !e >= 0 do
      let cur = !e in
      e := t.next.(cur);
      t.next.(cur) <- t.free;
      t.free <- cur
    done;
    t.heads.(b) <- -1
  done;
  t.last <- 0;
  t.length <- 0
