open! Import

(* See the .mli for the algorithm outline and the bit-identity argument.

   Node states during one repair, tracked by epoch stamps so consecutive
   repairs share arrays without clearing them:

   - untouched: the tree entry is still exact (or provably an
     over-approximation that no surviving path undercuts); its composite
     distance is read straight from the tree.
   - touched, not settled: [newdist]/[newparent] hold the best candidate
     so far ([max_int]/[-1] for invalidated nodes not yet re-offered a
     path); the tree entry is stale and must not be read.
   - settled: the tree entry has been patched with the final value.

   Every strict improvement pushes a (key, link-id) entry; a popped entry
   is acted on only if it still matches [newdist] (lazy deletion).  Exact
   ties never push: for a touched node the candidate parent array is
   lowered in place, for an untouched node the tree's parent pointer is
   patched directly — a parent swap at equal distance changes nothing
   downstream.  Ties arriving after a node settled are impossible: an
   achieving predecessor's key is at least one edge weight below the
   node's, so it settles (and relaxes) strictly earlier (keys pop in
   nondecreasing order), and achieving predecessors that never enter the
   queue are exactly the intact ones the seeding phase already scanned.

   Structure note: [repair] runs every routing period on the simulator's
   steady path and is pinned allocation-free by the A0xx gate (DESIGN.md
   §8).  Hence no local closures (their environment blocks allocate): the
   phases are top-level helpers over explicit arguments, the changes
   arrive as int columns, the flood worklist is an int stack in the
   scratch, and queue pops go through a reusable {!Int_heap.slot}.  The
   tree holds composite distances and int parents, so reads and patches
   are plain int array accesses. *)

(* A reusable change set: three int columns and a live count.  Filling it
   allocates only when a column doubles. *)
type changes = {
  mutable links : int array;
  mutable old_w : int array;
  mutable new_w : int array;
  mutable count : int;
}

let changes () = { links = [||]; old_w = [||]; new_w = [||]; count = 0 }

let clear_changes c = c.count <- 0

let[@inline never] grow_changes c cap =
  let grow a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 c.count;
    b
  in
  c.links <- grow c.links;
  c.old_w <- grow c.old_w;
  c.new_w <- grow c.new_w

let reserve_changes c n = if n > Array.length c.links then grow_changes c n

let add_change c lid ~old_w ~new_w =
  if c.count = Array.length c.links then
    grow_changes c (max 8 (2 * Array.length c.links));
  let k = c.count in
  c.links.(k) <- Link.id_to_int lid;
  c.old_w.(k) <- old_w;
  c.new_w.(k) <- new_w;
  c.count <- k + 1
[@@hot_path]

type scratch = {
  queue : Int_heap.t;
  slot : Int_heap.slot; (* out-cell for allocation-free pops *)
  mutable stamp : int array; (* touched this epoch *)
  mutable settled : int array;
  mutable invalid : int array;
  mutable newdist : int array; (* composite; valid when touched *)
  mutable newparent : int array;
  mutable touched : int array; (* node ids, first [ntouched] live *)
  mutable ntouched : int;
  mutable stack : int array; (* flood worklist, first [nstack] live *)
  mutable nstack : int;
  mutable epoch : int;
  mutable wrote : bool; (* the last repair wrote a tree entry *)
}

let size_for s g =
  let n = Graph.node_count g in
  (* A repair's peak queue: a seed per node plus two entries per link. *)
  Int_heap.reserve s.queue (n + (2 * Graph.link_count g));
  if Array.length s.stamp < n then begin
    s.stamp <- Array.make n 0;
    s.settled <- Array.make n 0;
    s.invalid <- Array.make n 0;
    s.newdist <- Array.make n 0;
    s.newparent <- Array.make n 0;
    s.touched <- Array.make n 0;
    s.stack <- Array.make n 0;
    s.epoch <- 0
  end

let scratch ?graph () =
  let s =
    { queue = Int_heap.create ();
      slot = Int_heap.slot ();
      stamp = [||];
      settled = [||];
      invalid = [||];
      newdist = [||];
      newparent = [||];
      touched = [||];
      ntouched = 0;
      stack = [||];
      nstack = 0;
      epoch = 0;
      wrote = false }
  in
  (match graph with Some g -> size_for s g | None -> ());
  s

(* Kept out of line: the resize path allocates, and inlining it into
   [repair] would put those (cold) sites inside the A0xx-gated body. *)
let[@inline never] ready s g =
  size_for s g;
  s.epoch <- s.epoch + 1;
  s.ntouched <- 0;
  s.nstack <- 0;
  s.wrote <- false;
  Int_heap.clear s.queue

let wrote_tree s = s.wrote

let touch s epoch v =
  if s.stamp.(v) <> epoch then begin
    s.stamp.(v) <- epoch;
    s.touched.(s.ntouched) <- v;
    s.ntouched <- s.ntouched + 1
  end

let invalidate s epoch v =
  if s.invalid.(v) <> epoch then begin
    s.invalid.(v) <- epoch;
    touch s epoch v;
    s.newdist.(v) <- max_int;
    s.newparent.(v) <- -1;
    s.stack.(s.nstack) <- v;
    s.nstack <- s.nstack + 1
  end

(* The proof that lets a caller skip a tree.  Per changed link [u -> v]:

   - a weight increase (or a link going down) cannot change a tree unless
     the link is that tree's parent of [v]: a non-parent link lies on no
     tree path (distances stay achieved without it) and was not the
     lowest-id candidate into [v] (candidates only shrink);

   - a weight decrease (or a link coming up) to [w'] cannot change a tree
     unless [u] is reached and [D(u) + w' <= D(v)] in composite distance
     ([<=], not [<]: equality makes the link a new parent candidate that
     may win the id tie).

   These tests compose across any set of simultaneous changes (induction
   on the decreased edges of a hypothetical shorter path, using the strict
   inequality from the decrease test), so a tree passing every per-link
   test is bit-identical to a full recompute.  A plain loop over the
   tree's own arrays, with no closures.  An unreached [v] holds [max_int],
   which every candidate through a reached [u] undercuts. *)
let affects g tree c =
  let parent = Spf_tree.unsafe_parent tree in
  let comp = Spf_tree.unsafe_composite tree in
  let hit = ref false and k = ref 0 in
  while (not !hit) && !k < c.count do
    let lid = c.links.(!k) and old_w = c.old_w.(!k) and new_w = c.new_w.(!k) in
    let l = Graph.link g (Link.id_of_int lid) in
    let u = Node.to_int l.Link.src and v = Node.to_int l.Link.dst in
    (hit :=
       if new_w >= 0 && (old_w < 0 || new_w < old_w) then
         comp.(u) <> max_int && comp.(u) + new_w <= comp.(v)
       else parent.(v) = lid);
    incr k
  done;
  !hit
[@@hot_path]

(* Phase 1: invalidate the direct children of worsened parent links.  The
   root has no parent and is never invalidated, so distance 0 stays
   anchored. *)
let seed_increases s g parent epoch c =
  for k = 0 to c.count - 1 do
    let old_w = c.old_w.(k) and new_w = c.new_w.(k) in
    if old_w >= 0 && (new_w < 0 || new_w > old_w) then begin
      let lid = c.links.(k) in
      let v = Node.to_int (Graph.link g (Link.id_of_int lid)).Link.dst in
      if parent.(v) = lid then invalidate s epoch v
    end
  done
[@@hot_path]

(* Phase 3b: decreased links from intact sources.  Invalidated
   destinations were already offered this link by the in-scan of phase 3a;
   invalidated sources relax it when (if) they re-settle. *)
let seed_decreases s g parent comp epoch c =
  for k = 0 to c.count - 1 do
    let old_w = c.old_w.(k) and new_w = c.new_w.(k) in
    if new_w >= 0 && (old_w < 0 || new_w < old_w) then begin
      let lid = c.links.(k) in
      let l = Graph.link g (Link.id_of_int lid) in
      let u = Node.to_int l.Link.src and v = Node.to_int l.Link.dst in
      if s.invalid.(u) <> epoch && s.invalid.(v) <> epoch then begin
        let du = if s.stamp.(u) = epoch then s.newdist.(u) else comp.(u) in
        if du <> max_int then begin
          let cand = du + new_w in
          let cur = if s.stamp.(v) = epoch then s.newdist.(v) else comp.(v) in
          if cand < cur then begin
            touch s epoch v;
            s.newdist.(v) <- cand;
            s.newparent.(v) <- lid;
            Int_heap.push s.queue ~key:cand ~tie:lid v
          end
          else if cand = cur then
            if s.stamp.(v) = epoch then begin
              if lid < s.newparent.(v) then s.newparent.(v) <- lid
            end
            else if lid < parent.(v) then begin
              parent.(v) <- lid;
              s.wrote <- true
            end
        end
      end
    end
  done
[@@hot_path]

let repair s g ~tree ~weights ~changes =
  ready s g;
  let parent = Spf_tree.unsafe_parent tree in
  let comp = Spf_tree.unsafe_composite tree in
  let out_off = Graph.csr_out_off g in
  let out_link_ids = Graph.csr_out_link_ids g in
  let out_dst = Graph.csr_out_dst g in
  let in_off = Graph.csr_in_off g in
  let in_link_ids = Graph.csr_in_link_ids g in
  let epoch = s.epoch in
  seed_increases s g parent epoch changes;
  (* Phase 2: flood invalidation down the suspect subtrees. *)
  while s.nstack > 0 do
    s.nstack <- s.nstack - 1;
    let u = s.stack.(s.nstack) in
    for k = out_off.(u) to out_off.(u + 1) - 1 do
      let j = out_dst.(k) in
      if s.invalid.(j) <> epoch && parent.(j) = out_link_ids.(k) then
        invalidate s epoch j
    done
  done;
  (* Phase 3a: offer each invalidated node its best in-link from intact
     nodes.  Intact distances may still shrink (a pending decrease), in
     which case the seed is an over-approximation of a path that does
     exist — the source's own settle re-relaxes with the better value
     before the stale entry can win a pop. *)
  let ninvalid = s.ntouched in
  for t = 0 to ninvalid - 1 do
    let v = s.touched.(t) in
    let best_w = ref max_int and best_l = ref (-1) in
    for k = in_off.(v) to in_off.(v + 1) - 1 do
      let lid = in_link_ids.(k) in
      let ew = weights.(lid) in
      if ew >= 0 then begin
        let u = Node.to_int (Graph.link g (Link.id_of_int lid)).Link.src in
        if s.invalid.(u) <> epoch then begin
          let du = comp.(u) in
          if du <> max_int then begin
            let cand = du + ew in
            if cand < !best_w || (cand = !best_w && lid < !best_l) then begin
              best_w := cand;
              best_l := lid
            end
          end
        end
      end
    done;
    if !best_w <> max_int then begin
      s.newdist.(v) <- !best_w;
      s.newparent.(v) <- !best_l;
      Int_heap.push s.queue ~key:!best_w ~tie:!best_l v
    end
  done;
  seed_decreases s g parent comp epoch changes;
  (* Phase 4: re-settle in (key, link id) order, patching the tree with
     the same composite and parent a fresh computation would write. *)
  let resettled = ref 0 in
  let slot = s.slot in
  while Int_heap.pop_min_into s.queue slot do
    let w = slot.Int_heap.key and v = slot.Int_heap.value in
    if s.settled.(v) <> epoch && s.newdist.(v) = w then begin
      s.settled.(v) <- epoch;
      incr resettled;
      s.wrote <- true (* and so for this settle's tie patches below *);
      comp.(v) <- w;
      parent.(v) <- s.newparent.(v);
      for k = out_off.(v) to out_off.(v + 1) - 1 do
        let lid = out_link_ids.(k) in
        let ew = weights.(lid) in
        let j = out_dst.(k) in
        if ew >= 0 && s.settled.(j) <> epoch then begin
          let w' = w + ew in
          let cur = if s.stamp.(j) = epoch then s.newdist.(j) else comp.(j) in
          if w' < cur then begin
            touch s epoch j;
            s.newdist.(j) <- w';
            s.newparent.(j) <- lid;
            Int_heap.push s.queue ~key:w' ~tie:lid j
          end
          else if w' = cur then
            if s.stamp.(j) = epoch then begin
              if lid < s.newparent.(j) then s.newparent.(j) <- lid
            end
            else if lid < parent.(j) then parent.(j) <- lid
        end
      done
    end
  done;
  (* Touched nodes that never re-settled have no surviving path: every
     strict improvement pushed an entry at its final value, so only
     [max_int] candidates can be left standing. *)
  for t = 0 to s.ntouched - 1 do
    let v = s.touched.(t) in
    if s.settled.(v) <> epoch then begin
      comp.(v) <- max_int;
      parent.(v) <- -1;
      s.wrote <- true
    end
  done;
  !resettled
[@@hot_path]
