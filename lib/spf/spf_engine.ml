open! Import

(* The engine owns one shortest-path tree per source and keeps the set
   consistent with the latest link costs at minimal cost.  The key fact it
   leans on: with (weight, arriving-link-id) heap priorities — globally
   unique — and lowest-id tie-breaking, {!Dijkstra.compute_flat} is a pure
   function of the weight table.  Every node's final distance is the true
   shortest composite distance and its parent is the lowest-id link
   achieving it, independent of visit order.  So the engine can diff the
   memoized weight table between refreshes and {e prove} most trees
   untouched ({!Spf_repair.affects} holds the per-link tests and why they
   compose), keeping them as they are.  Trees that fail the proof are
   brought up to date by {!Spf_repair} — in-place dynamic repair that
   re-settles only the disturbed region and restores the same
   bit-identity.  Only full sweeps fan over the domain pool (when the
   sweep is big enough); a repair touches a handful of nodes and stays on
   the caller. *)

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
  tracer : Tracer.t;
  tr_recompute : int; (* interned "spf_recompute" *)
  tr_repair : int; (* interned "spf_repair" *)
  mutable weights : int array;
  mutable weights_scratch : int array;
      (* the previous table, recycled: each refresh fills it in place,
         diffs, and swaps — steady periods never allocate a table *)
  mutable trees : Spf_tree.t array;
      (* one per source, indexed by node id; [||] before the first
         refresh, which allocates them all *)
  scratches : Dijkstra.scratch array;
      (* per pool slot, cached across fan-outs; slot 0 is the calling
         domain's, also used for sequential sweeps *)
  repair_scratch : Spf_repair.scratch;
  changes : Spf_repair.changes; (* the refresh's weight diff, reused *)
  to_repair : int array; (* sources to repair, first [nrepair] live *)
  mutable nrepair : int;
  stats : stats;
}

(* Changed-links fraction above which a refresh abandons per-source
   analysis and sweeps every tree. *)
let threshold = 0.25

(* The repair scratch is first used by the first repair, which can come
   periods after the first refresh.  A pooled engine sizes it here:
   under several domains each minor collection's promotions are split
   among all domains and a worker's share reaches the GC counters only
   at its next major slice, so scratch first allocated in a later period
   would make the allocation counts of the periods after it depend on
   scheduling.  Without a pool the first repair sizes it. *)
let create ?pool ?(tracer = Tracer.null) graph =
  let n = Graph.node_count graph in
  let slots = match pool with Some p -> Domain_pool.size p | None -> 1 in
  { graph;
    pool;
    tracer;
    tr_recompute = Tracer.intern tracer "spf_recompute";
    tr_repair = Tracer.intern tracer "spf_repair";
    weights = [||];
    weights_scratch = [||];
    trees = [||];
    scratches = Array.init slots (fun _ -> Dijkstra.scratch ());
    repair_scratch =
      Spf_repair.scratch ?graph:(if slots > 1 then Some graph else None) ();
    changes =
      (let c = Spf_repair.changes () in
       Spf_repair.reserve_changes c (Graph.link_count graph);
       c);
    to_repair = Array.make n 0;
    nrepair = 0;
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

(* Below this much total work, run the sweep inline even when a pool is
   attached.  The unit is one node-or-edge visit; a visit costs about
   50 ns (bench perf-spf, 2-vCPU box: mesh200's ~840 visits per source
   take ~41 µs), while waking the pool and draining a job costs tens of
   µs — so a fan-out only pays for itself once the sweep holds several
   hundred µs of work, and this threshold is about 0.8 ms of it.  The
   57-node ARPANET's 11,457 visits stay below it. *)
let parallel_grain = 16_384

(* Block the fan-out so a domain claims several sources per handout
   claim: one claim per source made small graphs spend comparable time
   on handout as on Dijkstra itself (the mesh200 regression in
   BENCH_spf.json). *)
let source_chunk ~sources ~domains = max 1 (sources / (domains * 8))

(* Recompute every tree in place, each source writing only its own
   tree.  The sequential sweep is a plain loop: a D-SPF period takes
   this path, and must not allocate. *)
let sweep t =
  t.stats.full_sweeps <- t.stats.full_sweeps + 1;
  let trees = t.trees in
  let n = Array.length trees in
  if n > 0 then begin
    Tracer.span_begin_range t.tracer t.tr_recompute ~lo:0 ~hi:n;
    t.stats.sources_recomputed <- t.stats.sources_recomputed + n;
    let weights = t.weights in
    let g = t.graph in
    let work = n * (Graph.node_count g + Graph.link_count g) in
    (match t.pool with
    | Some pool when Domain_pool.size pool > 1 && work >= parallel_grain ->
      let grain = source_chunk ~sources:n ~domains:(Domain_pool.size pool) in
      Domain_pool.parallel_for ~grain ~label:t.tr_recompute pool
        ~init:(fun slot -> t.scratches.(slot))
        n
        (fun s i -> Dijkstra.compute_into s g ~weights trees.(i))
    | Some _ | None ->
      let s = t.scratches.(0) in
      for i = 0 to n - 1 do
        Dijkstra.compute_into s g ~weights trees.(i)
      done);
    Tracer.span_end t.tracer t.tr_recompute
  end

(* Repair the [nrepair] queued trees in place, on the calling domain:
   per-tree work is proportional to the disturbed region, usually a few
   nodes, far below what a fan-out costs. *)
let repair_trees t =
  let nt = t.nrepair in
  t.nrepair <- 0;
  if nt > 0 then begin
    Tracer.span_begin_range t.tracer t.tr_repair ~lo:0 ~hi:nt;
    t.stats.sources_repaired <- t.stats.sources_repaired + nt;
    for k = 0 to nt - 1 do
      t.stats.nodes_resettled <-
        t.stats.nodes_resettled
        + Spf_repair.repair t.repair_scratch t.graph
            ~tree:t.trees.(t.to_repair.(k)) ~weights:t.weights
            ~changes:t.changes
    done;
    Tracer.span_end t.tracer t.tr_repair
  end

let refresh ?enabled t ~cost =
  t.stats.refreshes <- t.stats.refreshes + 1;
  let n = Graph.node_count t.graph in
  if Array.length t.trees = 0 then begin
    (* First refresh: allocate both tables and every tree once; they live
       forever. *)
    t.weights <- Dijkstra.compute_weights ?enabled t.graph ~cost;
    t.weights_scratch <- Array.make (Array.length t.weights) (-1);
    t.trees <-
      Array.init n (fun i -> Spf_tree.unreached t.graph (Node.of_int i));
    sweep t
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
      (* Nothing flooded a significant update: every tree is still
         exact. *)
      t.stats.sources_reused <- t.stats.sources_reused + n;
      t.stats.skipped <- t.stats.skipped + 1
    end
    else begin
      (* Change path (floods happened): swap the tables, diff them into
         the reusable change set, and either sweep or repair what the
         proof cannot keep.  Every tree is refreshed in place, so this
         path allocates nothing either once its arrays are sized. *)
      t.weights <- w;
      t.weights_scratch <- old;
      let changes = t.changes in
      Spf_repair.clear_changes changes;
      for i = 0 to nl - 1 do
        if w.(i) <> old.(i) then
          Spf_repair.add_change changes (Link.id_of_int i) ~old_w:old.(i)
            ~new_w:w.(i)
      done;
      if
        float_of_int !nchanged
        > threshold *. float_of_int (Graph.link_count t.graph)
      then sweep t
      else begin
        for i = 0 to n - 1 do
          if Spf_repair.affects t.graph t.trees.(i) changes then begin
            t.to_repair.(t.nrepair) <- i;
            t.nrepair <- t.nrepair + 1
          end
          else
            (* Provably identical to a recompute: keep it. *)
            t.stats.sources_reused <- t.stats.sources_reused + 1
        done;
        repair_trees t
      end
    end
  end

let tree t node =
  if Array.length t.trees = 0 then
    invalid_arg "Spf_engine.tree: refresh the engine first";
  t.trees.(Node.to_int node)
