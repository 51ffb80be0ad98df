open! Import

(* The engine owns one shortest-path tree per source and keeps the set
   consistent with the latest link costs at minimal cost.  The key fact it
   leans on: with (weight, arriving-link-id) heap priorities — globally
   unique — and lowest-id tie-breaking, {!Dijkstra.compute_flat} is a pure
   function of the weight table.  Every node's final distance is the true
   shortest composite distance and its parent is the lowest-id link
   achieving it, independent of visit order.  So the engine can diff the
   memoized weight table between refreshes and {e prove} most trees
   untouched:

   - a weight increase (or a link going down) cannot change a tree unless
     the link is that tree's parent of its destination: a non-parent link
     lies on no tree path (distances stay achieved without it) and was not
     the lowest-id candidate into its destination (candidates only shrink);

   - a weight decrease (or a link coming up) to [w'] on link [u -> v]
     cannot change a tree unless [u] is reached and
     [D(u) + w' <= D(v)] in composite distance ([<=], not [<]: equality
     makes the link a new parent candidate that may win the id tie).

   These tests compose across any set of simultaneous changes (induction on
   the decreased edges of a hypothetical shorter path, using the strict
   inequality from the decrease test), so a tree passing every per-link
   test is bit-identical to a full recompute.  Trees that fail any test
   are brought up to date by {!Spf_repair} — in-place dynamic repair that
   re-settles only the disturbed region and restores the same bit-identity
   — or, when repair is off or the tree is missing, recomputed in full.
   Only full recomputes fan over the domain pool (when the batch is big
   enough); a repair touches a handful of nodes and stays on the caller. *)

type stats = {
  mutable refreshes : int;
  mutable skipped : int;
  mutable full_sweeps : int;
  mutable sources_recomputed : int;
  mutable sources_repaired : int;
  mutable sources_reused : int;
  mutable nodes_resettled : int;
}

type t = {
  graph : Graph.t;
  pool : Domain_pool.t option;
  repair : bool;
  tracer : Tracer.t;
  tr_recompute : int; (* interned "spf_recompute" *)
  tr_repair : int; (* interned "spf_repair" *)
  mutable weights : int array; (* [||] before the first refresh *)
  mutable weights_scratch : int array;
      (* the previous table, recycled: each refresh fills it in place,
         diffs, and swaps — steady periods never allocate a table *)
  trees : Spf_tree.t option array;
  scratch : Dijkstra.scratch; (* caller-domain work arrays, reused forever *)
  repair_scratch : Spf_repair.scratch;
  stats : stats;
}

(* Changed-links fraction above which a refresh abandons per-source
   analysis and recomputes everything. *)
let threshold = 0.25

let create ?pool ?(tracer = Tracer.null) ?(repair = true) graph =
  { graph;
    pool;
    repair;
    tracer;
    tr_recompute = Tracer.intern tracer "spf_recompute";
    tr_repair = Tracer.intern tracer "spf_repair";
    weights = [||];
    weights_scratch = [||];
    trees = Array.make (Graph.node_count graph) None;
    scratch = Dijkstra.scratch ();
    repair_scratch = Spf_repair.scratch ();
    stats =
      { refreshes = 0;
        skipped = 0;
        full_sweeps = 0;
        sources_recomputed = 0;
        sources_repaired = 0;
        sources_reused = 0;
        nodes_resettled = 0 } }

let graph t = t.graph

let stats t = t.stats

(* Below this much total work, run the recompute inline even when a pool
   is attached.  The unit is one node-or-edge visit; a visit costs on the
   order of 100 ns (bench perf-spf: mesh200's ~840 visits/source take
   ~75 µs), while waking the pool and draining a job costs tens of µs —
   so a fan-out only pays for itself once the batch holds a couple of
   milliseconds of work.  Incremental refreshes that touch a handful of
   sources (the common per-period case) stay sequential. *)
let parallel_grain = 16_384

let recompute t sources =
  let todo = Array.of_list sources in
  let nt = Array.length todo in
  if nt > 0 then begin
    Tracer.span_begin_range t.tracer t.tr_recompute ~lo:0 ~hi:nt;
    t.stats.sources_recomputed <- t.stats.sources_recomputed + nt;
    let weights = t.weights in
    let g = t.graph in
    let work = nt * (Graph.node_count g + Graph.link_count g) in
    (match t.pool with
    | Some pool when Domain_pool.size pool > 1 && work >= parallel_grain ->
      let grain =
        Dijkstra.source_chunk ~sources:nt ~domains:(Domain_pool.size pool)
      in
      Domain_pool.parallel_for ~grain ~label:t.tr_recompute pool
        ~init:(fun _ -> Dijkstra.scratch ())
        nt
        (fun s k ->
          let i = todo.(k) in
          t.trees.(i) <-
            Some (Dijkstra.compute_flat_s s g ~weights (Node.of_int i)))
    | Some _ | None ->
      for k = 0 to nt - 1 do
        let i = todo.(k) in
        t.trees.(i) <-
          Some (Dijkstra.compute_flat_s t.scratch g ~weights (Node.of_int i))
      done);
    Tracer.span_end t.tracer t.tr_recompute
  end

(* Repair affected trees in place, on the calling domain: per-tree work
   is proportional to the disturbed region, usually a few nodes, far
   below what a fan-out costs. *)
let repair_trees t sources changes =
  match sources with
  | [] -> ()
  | _ ->
    let nt = List.length sources in
    Tracer.span_begin_range t.tracer t.tr_repair ~lo:0 ~hi:nt;
    t.stats.sources_repaired <- t.stats.sources_repaired + nt;
    List.iter
      (fun i ->
        let tree = Option.get t.trees.(i) in
        t.stats.nodes_resettled <-
          t.stats.nodes_resettled
          + Spf_repair.repair t.repair_scratch t.graph ~tree ~weights:t.weights
              ~changes)
      sources;
    Tracer.span_end t.tracer t.tr_repair

(* Can this set of weight changes alter [tree]?  See the module comment for
   why "no" here is a proof, not a heuristic. *)
let affected t tree changes =
  let composite n =
    Dijkstra.composite ~dist:(Spf_tree.dist tree n) ~hops:(Spf_tree.hops tree n)
  in
  List.exists
    (fun (lid, old_w, new_w) ->
      let l = Graph.link t.graph lid in
      let decrease = new_w >= 0 && (old_w < 0 || new_w < old_w) in
      if decrease then
        Spf_tree.reached tree l.Link.src
        && ((not (Spf_tree.reached tree l.Link.dst))
           || composite l.Link.src + new_w <= composite l.Link.dst)
      else begin
        match Spf_tree.parent_link tree l.Link.dst with
        | Some p -> Link.id_equal p.Link.id lid
        | None -> false
      end)
    changes

(* [?wanted] stays an option internally so the steady path never builds
   the [Node.of_int] wrapper closure the old code allocated per refresh. *)
let[@inline] wanted_at wanted i =
  match wanted with None -> true | Some f -> f (Node.of_int i)

let refresh ?wanted ?enabled t ~cost =
  t.stats.refreshes <- t.stats.refreshes + 1;
  let n = Graph.node_count t.graph in
  if Array.length t.weights = 0 then begin
    (* First refresh: allocate both tables once; they live forever. *)
    t.weights <- Dijkstra.compute_weights ?enabled t.graph ~cost;
    t.weights_scratch <- Array.make (Array.length t.weights) (-1);
    t.stats.full_sweeps <- t.stats.full_sweeps + 1;
    let todo = ref [] in
    for i = n - 1 downto 0 do
      if wanted_at wanted i then todo := i :: !todo else t.trees.(i) <- None
    done;
    recompute t !todo
  end
  else begin
    let w = t.weights_scratch in
    let old = t.weights in
    Dijkstra.compute_weights_into ?enabled t.graph ~cost w;
    let nl = Array.length w in
    let nchanged = ref 0 in
    for i = 0 to nl - 1 do
      if w.(i) <> old.(i) then incr nchanged
    done;
    if !nchanged = 0 then begin
      (* Nothing flooded a significant update: every existing tree is
         still exact; only sources newly wanted need work.  This is the
         per-period steady path and allocates nothing (unless trees are
         missing, which only happens right after a wanted-set change). *)
      let missing = ref 0 in
      for i = 0 to n - 1 do
        match t.trees.(i) with
        | Some _ -> t.stats.sources_reused <- t.stats.sources_reused + 1
        | None -> if wanted_at wanted i then incr missing
      done;
      if !missing = 0 then t.stats.skipped <- t.stats.skipped + 1
      else begin
        let todo = ref [] in
        for i = n - 1 downto 0 do
          match t.trees.(i) with
          | None -> if wanted_at wanted i then todo := i :: !todo
          | Some _ -> ()
        done;
        recompute t !todo
      end
    end
    else begin
      (* Change path (floods happened): swap the tables and fall back to
         the proof-driven repair/recompute split.  Allocation is fine
         here — the network itself is churning. *)
      t.weights <- w;
      t.weights_scratch <- old;
      let changes = ref [] in
      for i = nl - 1 downto 0 do
        if w.(i) <> old.(i) then
          changes := (Link.id_of_int i, old.(i), w.(i)) :: !changes
      done;
      let changes = !changes in
      if
        float_of_int !nchanged
        > threshold *. float_of_int (Graph.link_count t.graph)
      then begin
        t.stats.full_sweeps <- t.stats.full_sweeps + 1;
        let todo = ref [] in
        for i = n - 1 downto 0 do
          if wanted_at wanted i then todo := i :: !todo
        done;
        recompute t !todo
      end
      else begin
        let todo = ref [] in
        let to_repair = ref [] in
        for i = n - 1 downto 0 do
          match t.trees.(i) with
          | Some tree when not (affected t tree changes) ->
            (* Provably identical to a recompute — keep it, wanted or not. *)
            t.stats.sources_reused <- t.stats.sources_reused + 1
          | Some _ ->
            if not (wanted_at wanted i) then t.trees.(i) <- None
            else if t.repair then to_repair := i :: !to_repair
            else todo := i :: !todo
          | None -> if wanted_at wanted i then todo := i :: !todo
        done;
        repair_trees t !to_repair changes;
        recompute t !todo
      end
    end
  end

let tree t node =
  if Array.length t.weights = 0 then
    invalid_arg "Spf_engine.tree: refresh the engine first";
  let i = Node.to_int node in
  match t.trees.(i) with
  | Some tree -> tree
  | None ->
    let tree = Dijkstra.compute_flat_s t.scratch t.graph ~weights:t.weights node in
    t.trees.(i) <- Some tree;
    t.stats.sources_recomputed <- t.stats.sources_recomputed + 1;
    tree

let trees t =
  if Array.length t.weights = 0 then
    invalid_arg "Spf_engine.trees: refresh the engine first";
  let todo = ref [] in
  for i = Graph.node_count t.graph - 1 downto 0 do
    if t.trees.(i) = None then todo := i :: !todo
  done;
  if !todo <> [] then recompute t !todo;
  Array.map Option.get t.trees
