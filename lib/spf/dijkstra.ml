open! Import

let max_link_cost = 254

(* One link's range-checked cost, encoded by the trees' own
   {!Spf_tree.edge_weight}. *)
let link_weight ~cost lid =
  let c = cost lid in
  if c < 1 || c > max_link_cost then
    invalid_arg
      (Printf.sprintf "Dijkstra: link cost %d outside [1, %d]" c max_link_cost);
  Spf_tree.edge_weight ~cost:c

(* Memoized per-link composite weights: one cost_fn call + range check per
   link per refresh, instead of per edge per source.  Disabled links carry
   the sentinel -1 and are never entered. *)
(* Fill a caller-owned table in place.  A plain for-loop rather than
   [Graph.iter_links]: this runs every routing period on the simulator's
   steady path, which must not allocate (an [iter_links] closure would). *)
let compute_weights_into ?(enabled = fun _ -> true) g ~cost weights =
  for i = 0 to Graph.link_count g - 1 do
    let lid = Link.id_of_int i in
    weights.(i) <- (if enabled lid then link_weight ~cost lid else -1)
  done

let compute_weights ?enabled g ~cost =
  let weights = Array.make (Graph.link_count g) (-1) in
  compute_weights_into ?enabled g ~cost weights;
  weights

(* Reusable work arrays for the inner loop.  The settled flags and the
   heap never escape a computation, so one scratch can serve every tree a
   domain computes; the distances and parents are the tree's own arrays,
   written in place.  A scratch belongs to one domain; the pool fan-out
   gives each participant its own. *)
type scratch = {
  mutable settled : bool array;
  heap : Int_heap.t;
  slot : Int_heap.slot; (* out-cell for allocation-free pops *)
}

let scratch () =
  { settled = [||]; heap = Int_heap.create (); slot = Int_heap.slot () }

(* Kept out of line: the resize path allocates, and inlining it into
   [compute_into] would put those (cold) sites inside the A0xx-gated
   body.  Resets the tree's [n] entries to unreached. *)
let[@inline never] ready s g ~dist ~parent n =
  (* One entry per relaxed link plus the root: the run's peak. *)
  Int_heap.reserve s.heap (Graph.link_count g + 1);
  if Array.length s.settled < n then s.settled <- Array.make n false
  else Array.fill s.settled 0 n false;
  Array.fill dist 0 n max_int;
  Array.fill parent 0 n (-1);
  Int_heap.clear s.heap

(* The SPF inner loop over the flat (CSR) adjacency and a memoized weight
   table.  Tie-breaking is identical to the historical list-based version:
   on a fully tied relaxation the lower arriving link id wins, so the tree
   is a pure function of the weight table.  A tied relaxation only patches
   the parent and pushes nothing: the node's queued key is already its
   distance, and every edge weight is at least 1, so two nodes at the same
   distance never relax each other and the order in which equal keys pop
   cannot change the tree.

   The loop works directly in the tree's composite-distance and parent
   arrays, reset first, so whatever the tree held before — a stale tree
   under older weights, or a fresh unreached one — no entry survives:
   nodes this run does not reach end unreached.  Nothing here
   allocates. *)
let compute_into s g ~weights tree =
  let n = Graph.node_count g in
  let out_off = Graph.csr_out_off g in
  let out_link_ids = Graph.csr_out_link_ids g in
  let out_dst = Graph.csr_out_dst g in
  let dist = Spf_tree.unsafe_composite tree in
  let parent = Spf_tree.unsafe_parent tree in
  ready s g ~dist ~parent n;
  let settled = s.settled in
  let heap = s.heap in
  let ri = Node.to_int (Spf_tree.root tree) in
  dist.(ri) <- 0;
  Int_heap.push heap ~key:0 ~tie:(-1) ri;
  let slot = s.slot in
  while Int_heap.pop_min_into heap slot do
    let w = slot.Int_heap.key and i = slot.Int_heap.value in
    if not settled.(i) then begin
      settled.(i) <- true;
      for k = out_off.(i) to out_off.(i + 1) - 1 do
        let lid = out_link_ids.(k) in
        let ew = weights.(lid) in
        let j = out_dst.(k) in
        if ew >= 0 && not settled.(j) then begin
          let w' = w + ew in
          if w' < dist.(j) then begin
            dist.(j) <- w';
            parent.(j) <- lid;
            Int_heap.push heap ~key:w' ~tie:lid j
          end
          else if w' = dist.(j) && lid < parent.(j) then
            (* Fully tied: keep the lower arriving link id. *)
            parent.(j) <- lid
        end
      done
    end
  done
[@@hot_path]

let compute_flat g ~weights root =
  let tree = Spf_tree.unreached g root in
  compute_into (scratch ()) g ~weights tree;
  tree

let compute ?enabled g ~cost root =
  compute_flat g ~weights:(compute_weights ?enabled g ~cost) root

let min_hop_tree ?enabled g root = compute ?enabled g ~cost:(fun _ -> 1) root
