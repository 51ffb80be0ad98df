open! Import

type tie_break = [ `Neutral | `Favor of Link.id | `Avoid of Link.id ]

let max_link_cost = 254

(* Composite edge weights encode lexicographic comparison of
   (path cost, probe-link preference, hop count) in a single positive
   integer, keeping plain Dijkstra applicable:

     w(l) = (cost(l) * cost_scale + probe_adjust(l)) * hop_scale + 1

   probe_adjust is -1 on the probed link under [`Favor] (an infinitesimal
   discount: among equal-cost paths, ones using the link win), +1 under
   [`Avoid].  The +1 per edge makes hop count the final tie-break.  With
   cost <= 254 and paths < 256 hops the sums stay far below max_int. *)
let hop_scale = 256

let cost_scale = 1024

let edge_weight ~tie_break ~cost lid =
  let c = cost lid in
  if c < 1 || c > max_link_cost then
    invalid_arg
      (Printf.sprintf "Dijkstra: link cost %d outside [1, %d]" c max_link_cost);
  let adjust =
    match tie_break with
    | `Neutral -> 0
    | `Favor probe -> if Link.id_equal probe lid then -1 else 0
    | `Avoid probe -> if Link.id_equal probe lid then 1 else 0
  in
  (((c * cost_scale) + adjust) * hop_scale) + 1

let link_weight ~cost lid = edge_weight ~tie_break:`Neutral ~cost lid

(* Memoized per-link composite weights: one cost_fn call + range check per
   link per refresh, instead of per edge per source.  Disabled links carry
   the sentinel -1 and are never entered. *)
(* Fill a caller-owned table in place.  A plain for-loop rather than
   [Graph.iter_links]: this runs every routing period on the simulator's
   steady path, which must not allocate (an [iter_links] closure would). *)
let compute_weights_into ?(tie_break = `Neutral) ?(enabled = fun _ -> true) g
    ~cost weights =
  for i = 0 to Graph.link_count g - 1 do
    let lid = Link.id_of_int i in
    weights.(i) <-
      (if enabled lid then edge_weight ~tie_break ~cost lid else -1)
  done

let compute_weights ?tie_break ?enabled g ~cost =
  let weights = Array.make (Graph.link_count g) (-1) in
  compute_weights_into ?tie_break ?enabled g ~cost weights;
  weights

let composite ~dist ~hops =
  if dist = max_int then max_int else (dist * cost_scale * hop_scale) + hops

(* Inverse of [composite] under [`Neutral] tie-breaking: the hop count
   lives in the low byte and the unit distance above the scales, with the
   half-up rounding that absorbs [`Favor]/[`Avoid] adjustments (for which
   the middle bits are nonzero). *)
(* Int-returning halves of [decompose]: results cross module boundaries
   unboxed, so the repair resettle loop can re-decode patched distances
   without allocating the pair. *)
let composite_units comp =
  if comp = max_int then max_int
  else
    (comp / hop_scale / cost_scale)
    + (if (comp / hop_scale) mod cost_scale > cost_scale / 2 then 1 else 0)

let composite_hops comp = if comp = max_int then max_int else comp mod hop_scale

let decompose comp = (composite_units comp, composite_hops comp)

(* Reusable work arrays for the inner loop.  The settled flags, composite
   distances and the heap never escape a computation, so one scratch can
   serve every tree a domain computes — per-period refreshes stop paying
   three array allocations plus heap growth per source.  (The parent,
   units and hops arrays *do* escape, into the returned [Spf_tree.t], and
   are still allocated per tree.)  A scratch belongs to one domain; the
   pool fan-out gives each participant its own. *)
type scratch = {
  mutable dist : int array; (* composite distances *)
  mutable settled : bool array;
  heap : Radix_queue.t;
  slot : Radix_queue.slot; (* out-cell for allocation-free pops *)
}

let scratch () =
  { dist = [||];
    settled = [||];
    heap = Radix_queue.create ();
    slot = Radix_queue.slot () }

let ready scratch n =
  if Array.length scratch.dist < n then begin
    scratch.dist <- Array.make n max_int;
    scratch.settled <- Array.make n false
  end
  else begin
    Array.fill scratch.dist 0 n max_int;
    Array.fill scratch.settled 0 n false
  end;
  Radix_queue.clear scratch.heap

(* The SPF inner loop over the flat (CSR) adjacency and a memoized weight
   table.  Tie-breaking is identical to the historical list-based version:
   queue priorities are (composite weight, arriving link id) pairs — globally
   unique — and on a fully tied relaxation the lower arriving link id wins,
   so the tree is a pure function of the weight table.  Dijkstra never
   pushes a key below the last popped one (edge weights are positive), the
   exact precondition of the monotone radix queue. *)
let compute_flat_s s g ~weights root =
  let n = Graph.node_count g in
  let out_off = Graph.csr_out_off g in
  let out_link_ids = Graph.csr_out_link_ids g in
  let out_dst = Graph.csr_out_dst g in
  ready s n;
  let dist = s.dist in
  let parent = Array.make n (-1) in
  let settled = s.settled in
  let heap = s.heap in
  let ri = Node.to_int root in
  dist.(ri) <- 0;
  Radix_queue.push heap ~key:0 ~tie:(-1) ri;
  let slot = s.slot in
  while Radix_queue.pop_min_into heap slot do
    let w = slot.Radix_queue.key and i = slot.Radix_queue.value in
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
            Radix_queue.push heap ~key:w' ~tie:lid j
          end
          else if w' = dist.(j) && lid < parent.(j) then begin
            (* Fully tied: keep the lower arriving link id so the tree
               is independent of queue internals. *)
            parent.(j) <- lid;
            Radix_queue.push heap ~key:w' ~tie:lid j
          end
        end
      done
    end
  done;
  (* Decode composite weights back into routing units and hop counts. *)
  let units = Array.make n max_int in
  let hops = Array.make n max_int in
  for i = 0 to n - 1 do
    if dist.(i) <> max_int then begin
      units.(i) <- composite_units dist.(i);
      hops.(i) <- composite_hops dist.(i)
    end
  done;
  let parent =
    Array.map (fun p -> if p < 0 then None else Some (Link.id_of_int p)) parent
  in
  Spf_tree.make ~graph:g ~root ~parent ~dist:units ~hops

let compute_flat g ~weights root = compute_flat_s (scratch ()) g ~weights root

let compute ?tie_break ?enabled g ~cost root =
  compute_flat g ~weights:(compute_weights ?tie_break ?enabled g ~cost) root

(* Chunk per-source fan-outs so domains claim several sources per visit to
   the pool's atomic counter: one task per source made small graphs spend
   comparable time on handout as on Dijkstra itself (the mesh200
   regression in BENCH_spf.json). *)
let source_chunk ~sources ~domains = max 1 (sources / (domains * 8))

let all_pairs ?tie_break ?enabled ?pool g ~cost =
  let weights = compute_weights ?tie_break ?enabled g ~cost in
  let n = Graph.node_count g in
  let trees = Array.make n None in
  let one s i = trees.(i) <- Some (compute_flat_s s g ~weights (Node.of_int i)) in
  (match pool with
  | None ->
    let s = scratch () in
    for i = 0 to n - 1 do
      one s i
    done
  | Some pool ->
    let chunk = source_chunk ~sources:n ~domains:(Domain_pool.size pool) in
    Domain_pool.parallel_for_with ~chunk pool ~init:scratch n one);
  Array.map Option.get trees

let min_hop_tree ?enabled g root = compute ?enabled g ~cost:(fun _ -> 1) root
