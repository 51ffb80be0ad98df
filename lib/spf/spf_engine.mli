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
      recomputes every wanted source outright.

    Repair and recomputation fan out over an optional {!Domain_pool.t}.
    In every configuration — sequential or parallel, repaired, swept or
    reused — the served trees are {b bit-identical} to [Dijkstra.compute]
    from scratch on the current costs: reuse happens only when a tree
    provably equals its recomputation (same distances, hops and parent
    links), repair restores exactly the from-scratch fixpoint, and
    parallel sources each write only their own slot.  Trees use [`Neutral]
    tie-breaking.

    {b Aliasing.}  Repair patches trees in place: a [Spf_tree.t] obtained
    from the engine reflects the {e latest} refresh, not the one it was
    fetched under.  Callers needing a frozen snapshot must copy before
    the next refresh. *)

type t

val create :
  ?pool:Domain_pool.t ->
  ?tracer:Tracer.t ->
  ?repair:bool ->
  ?repair_grain:int ->
  Graph.t ->
  t
(** [repair] (default [true]) selects in-place dynamic repair for affected
    sources; [false] falls back to per-source full recomputation (useful
    for differential testing and benchmarking).  [repair_grain] (default
    256) is the affected-tree count at or above which repairs fan out over
    [pool] — repairs are usually so cheap that the fan-out only pays off
    for large batches.

    [tracer] (default {!Tracer.null}) flight-records the engine:
    recompute and repair batches become [spf_recompute] / [spf_repair]
    spans on the calling domain's track, and — when the same tracer's
    {!Tracer.pool_probe} is installed on [pool] — each worker domain
    records the chunks of sources it actually ran. *)

val graph : t -> Graph.t

val refresh :
  ?wanted:(Node.t -> bool) ->
  ?enabled:(Link.id -> bool) ->
  t ->
  cost:(Link.id -> int) ->
  unit
(** Bring the engine up to date with [cost] / [enabled].  Only sources for
    which [wanted] holds (default: all) are guaranteed to have trees
    afterwards; unwanted sources keep their trees when provably unaffected
    and drop them otherwise (they can still be served on demand by
    {!tree}).
    @raise Invalid_argument if any enabled link's cost is outside
    [Dijkstra]'s admissible range. *)

val tree : t -> Node.t -> Spf_tree.t
(** The current tree rooted at the node, computing it on demand if the
    last refresh didn't want it.
    @raise Invalid_argument before the first {!refresh}. *)

val trees : t -> Spf_tree.t array
(** All trees, indexed by node id — [Dijkstra.all_pairs] served from the
    engine's cache.  Computes any missing sources first.
    @raise Invalid_argument before the first {!refresh}. *)

type stats = {
  mutable refreshes : int;  (** {!refresh} calls *)
  mutable skipped : int;
      (** refreshes where no weight changed and no tree was missing *)
  mutable full_sweeps : int;
      (** refreshes that recomputed every wanted source (first refresh, or
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
    The satellite "skip refresh when a period floods zero significant
    updates" is visible here as [skipped] climbing while [refreshes]
    climbs. *)
