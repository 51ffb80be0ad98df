open! Import

(** The all-pairs SPF engine: owns one shortest-path tree per source node
    and refreshes the set against new link costs at minimal cost.

    Both simulators route every packet off these trees, and the paper's
    whole point is that HN-SPF changes only a handful of link costs per
    routing period — so recomputing all [N] trees from scratch each period
    (the historical behavior) wastes almost all of its work.  On each
    {!refresh} the engine memoizes the composite edge weights into a flat
    table (one metric evaluation per link), diffs it against the previous
    table, and:

    - if nothing changed, keeps every tree (a skipped refresh);
    - if a small set changed, {e proves} per source whether the changes
      can touch that tree — an increase only matters to trees using the
      link, a decrease only to trees it could shorten or tie — and
      dynamically {e repairs} just the affected sources in place
      ({!Spf_repair}), re-settling only the disturbed region of each
      tree;
    - if a large fraction changed (more than a quarter of the links),
      sweeps: recomputes every source's tree in place
      ({!Dijkstra.compute_into}).

    The first refresh allocates every tree and sweeps; every later refresh
    updates the trees {e in place}.  The weight diff lives in one reusable
    {!Spf_repair.changes} set and the repair worklist in an int array.
    Once those are sized, a refresh on the calling domain allocates
    nothing, quiet or not; a pool fan-out allocates only its own
    bookkeeping (worker scratch is cached per pool slot).

    Big sweeps fan out over an optional {!Domain_pool.t}; repairs, each
    re-settling a handful of nodes, always run on the calling domain.  In
    every configuration — sequential or parallel, repaired, swept or
    reused — the trees are {b bit-identical} to [Dijkstra.compute] from
    scratch on the current costs: reuse happens only when a tree provably
    equals its recomputation (same distances, hops and parent links),
    repair restores exactly the from-scratch fixpoint, and parallel
    sources each write only their own tree.

    {b Aliasing.}  Because refreshes work in place, a [Spf_tree.t]
    obtained from the engine reflects the {e latest} refresh, not the one
    it was fetched under, and {!tree} returns the same physical tree for
    a source after every refresh.  Callers needing a frozen snapshot must
    copy before the next refresh. *)

type t

val create : ?pool:Domain_pool.t -> ?tracer:Tracer.t -> Graph.t -> t
(** An engine with no trees yet: the first {!refresh} allocates them.

    [pool] runs a sweep through {!Domain_pool.parallel_for} once the
    sweep holds enough work to pay for waking the pool (at least 16,384
    node-or-edge visits); smaller sweeps and every repair stay on the
    calling domain.

    [tracer] (default {!Tracer.null}) flight-records the engine: sweeps
    and repair batches become [spf_recompute] / [spf_repair] spans on the
    calling domain's track, and — when the same tracer's
    {!Tracer.pool_probe} is installed on [pool] — each worker domain
    records the blocks of sources it actually ran. *)

val graph : t -> Graph.t

val refresh :
  ?enabled:(Link.id -> bool) -> t -> cost:(Link.id -> int) -> unit
(** Bring every source's tree up to date with [cost] / [enabled].
    @raise Invalid_argument if any enabled link's cost is outside
    [Dijkstra]'s admissible range. *)

val tree : t -> Node.t -> Spf_tree.t
(** The current tree rooted at the node.
    @raise Invalid_argument before the first {!refresh}. *)

type stats = {
  mutable refreshes : int;  (** {!refresh} calls *)
  mutable skipped : int;  (** refreshes where no weight changed *)
  mutable full_sweeps : int;
      (** refreshes that recomputed every source (the first refresh, or
          more than a quarter of the links changed) *)
  mutable sources_recomputed : int;  (** single-source Dijkstra runs *)
  mutable sources_repaired : int;
      (** source trees patched in place by dynamic repair *)
  mutable sources_reused : int;
      (** source trees kept across a refresh without recomputation *)
  mutable nodes_resettled : int;
      (** total nodes re-settled across all repairs — the work dynamic
          repair actually did, vs. [sources_repaired × node_count] a
          recompute would have *)
}

val stats : t -> stats
(** Live counters (the record is the engine's own — read, don't write).
    Periods that flood no significant update show here as [skipped]
    climbing with [refreshes]. *)
