(* Per-link state in int columns.  A link's flips inside the window sit
   in its own [window + 1]-slot stretch of [ring], oldest at [head],
   [count] of them: observed at most once per tick, a link keeps at most
   [window] flips after pruning, plus the one the current tick adds, so
   the ring never overflows. *)
type t = {
  window : int;
  max_flips : int;
  slots : int; (* window + 1: ring slots per link *)
  seen : bool array; (* per link: a cost was observed *)
  last_cost : int array;
  direction : int array; (* -1, 0, +1: sign of the last cost change *)
  ring : int array; (* links * slots: flip ticks, oldest at head *)
  head : int array;
  count : int array; (* flips inside the window *)
  link_flips : int array; (* flips ever, window-independent *)
  flagged : bool array; (* currently over threshold *)
  ever : bool array;
  mutable flag_count : int;
  mutable flips_total : int; (* sum of [link_flips] *)
}

let create ?(window = 12) ?(max_flips = 4) ~links () =
  if links < 0 then invalid_arg "Oscillation.create: links < 0";
  if window < 1 then invalid_arg "Oscillation.create: window < 1";
  if max_flips < 1 then invalid_arg "Oscillation.create: max_flips < 1";
  let slots = window + 1 in
  { window;
    max_flips;
    slots;
    seen = Array.make links false;
    last_cost = Array.make links 0;
    direction = Array.make links 0;
    ring = Array.make (links * slots) 0;
    head = Array.make links 0;
    count = Array.make links 0;
    link_flips = Array.make links 0;
    flagged = Array.make links false;
    ever = Array.make links false;
    flag_count = 0;
    flips_total = 0 }

let observe ?on_flag t ~link ~tick ~cost =
  let base = link * t.slots in
  (* Drop the flips that left the window: keep ticks >= tick - window. *)
  let horizon = tick - t.window in
  while t.count.(link) > 0 && t.ring.(base + t.head.(link)) < horizon do
    t.head.(link) <- (t.head.(link) + 1) mod t.slots;
    t.count.(link) <- t.count.(link) - 1
  done;
  (if not t.seen.(link) then begin
     t.seen.(link) <- true;
     t.last_cost.(link) <- cost
   end
   else if cost <> t.last_cost.(link) then begin
     let direction = if cost > t.last_cost.(link) then 1 else -1 in
     let last = t.direction.(link) in
     if last <> 0 && direction <> last then begin
       t.ring.(base + ((t.head.(link) + t.count.(link)) mod t.slots)) <- tick;
       t.count.(link) <- t.count.(link) + 1;
       t.link_flips.(link) <- t.link_flips.(link) + 1;
       t.flips_total <- t.flips_total + 1
     end;
     t.direction.(link) <- direction;
     t.last_cost.(link) <- cost
   end);
  let n = t.count.(link) in
  if n > t.max_flips then begin
    if not t.flagged.(link) then begin
      t.flagged.(link) <- true;
      t.ever.(link) <- true;
      t.flag_count <- t.flag_count + 1;
      match on_flag with
      | Some f -> f ~link ~tick ~flips:n
      | None -> ()
    end
  end
  else t.flagged.(link) <- false
[@@hot_path]

let flips_in_window t ~link = t.count.(link)

let link_total_flips t ~link = t.link_flips.(link)

let total_flips t = t.flips_total

let collect flags =
  let out = ref [] in
  for i = Array.length flags - 1 downto 0 do
    if flags.(i) then out := i :: !out
  done;
  !out

let flagged t = collect t.flagged

let ever_flagged t = collect t.ever

let flag_count t = t.flag_count
