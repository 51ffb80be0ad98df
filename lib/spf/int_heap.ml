(* Binary min-heap over three parallel int columns: keys, ties and
   values.  Slot 0 is the root and slot [i]'s children are [2i + 1] and
   [2i + 2].  Both sifts move a hole, not the entry: the moving entry is
   held in locals, each level shifts one entry into the hole, and the
   moving entry is written once at its final slot.

   Why a binary heap: SPF on the networks the experiments run (57 to
   200 nodes) holds at most a few hundred live entries, where it beat
   the radix queue it replaced and a 4-ary heap read within noise of
   it.  DESIGN.md §6 has the measurements, including the 10⁴-node
   graphs where the radix queue was faster. *)

type t = {
  mutable keys : int array;
  mutable ties : int array;
  mutable vals : int array;
  mutable len : int;
}

let create () = { keys = [||]; ties = [||]; vals = [||]; len = 0 }

let capacity t = Array.length t.keys

(* Widen every column to [cap] slots.  Out of line: the only
   allocation, kept off the A0xx-gated push. *)
let[@inline never] grow_to t cap =
  let widen a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.keys <- widen t.keys;
  t.ties <- widen t.ties;
  t.vals <- widen t.vals

let reserve t n = if n > Array.length t.keys then grow_to t n

let is_empty t = t.len = 0

let length t = t.len

(* The hole climbs while the new entry precedes its parent.  The column
   types are spelled out so the comparisons compile to int compares. *)
let push t ~key ~tie v =
  if t.len = Array.length t.keys then
    grow_to t (max 16 (2 * Array.length t.keys));
  let keys : int array = t.keys
  and ties : int array = t.ties
  and vals : int array = t.vals in
  let hole = ref t.len in
  let rising = ref true in
  while !rising && !hole > 0 do
    let p = (!hole - 1) lsr 1 in
    let pk = keys.(p) in
    if key < pk || (key = pk && tie < ties.(p)) then begin
      keys.(!hole) <- pk;
      ties.(!hole) <- ties.(p);
      vals.(!hole) <- vals.(p);
      hole := p
    end
    else rising := false
  done;
  let h = !hole in
  keys.(h) <- key;
  ties.(h) <- tie;
  vals.(h) <- v;
  t.len <- t.len + 1
[@@hot_path]

type slot = { mutable key : int; mutable tie : int; mutable value : int }

let slot () = { key = 0; tie = 0; value = 0 }

(* Take the root, then refill its hole with the last entry: at each
   level the smaller of the hole's children moves up while it precedes
   that entry. *)
let pop_min_into t (out : slot) =
  if t.len = 0 then false
  else begin
    let keys : int array = t.keys
    and ties : int array = t.ties
    and vals : int array = t.vals in
    out.key <- keys.(0);
    out.tie <- ties.(0);
    out.value <- vals.(0);
    let len = t.len - 1 in
    t.len <- len;
    if len > 0 then begin
      let key = keys.(len) and tie = ties.(len) and v = vals.(len) in
      let hole = ref 0 in
      let sinking = ref true in
      while !sinking do
        let l = (2 * !hole) + 1 in
        if l >= len then sinking := false
        else begin
          let r = l + 1 in
          let c =
            if r < len
               && (keys.(r) < keys.(l)
                  || (keys.(r) = keys.(l) && ties.(r) < ties.(l)))
            then r
            else l
          in
          let ck = keys.(c) in
          if ck < key || (ck = key && ties.(c) < tie) then begin
            keys.(!hole) <- ck;
            ties.(!hole) <- ties.(c);
            vals.(!hole) <- vals.(c);
            hole := c
          end
          else sinking := false
        end
      done;
      let h = !hole in
      keys.(h) <- key;
      ties.(h) <- tie;
      vals.(h) <- v
    end;
    true
  end
[@@hot_path]

let clear t = t.len <- 0
