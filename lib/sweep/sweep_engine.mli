open! Import

(** The parallel scenario-sweep fabric behind [arpanet_sweep].

    A {!Sweep_spec.t} declares a grid of (scenario × metric × load scale
    × seed) points.  {!prepare} parses every scenario {e once} into an
    immutable shared spec — topology, parsed script, per-(scenario, seed)
    traffic template — and stamps each point with a stable content hash;
    {!run_prepared} then executes points (each its own flow simulator
    over [periods] routing periods) through {!Domain_pool.parallel_for},
    one point per work-stealing claim, and folds the results into one
    report.  {!merge} rebuilds the same report from shard files, and the
    [?reuse] hook skips points an earlier report already answers — both
    keyed by the point hash.

    Determinism is load-bearing: points are enumerated in a fixed axis
    order, each runs against a private scaled copy of the shared traffic
    template, per-point telemetry registries are regenerated from
    indicators and merged in point order (not completion order), and the
    report carries no domain or core counts — so the report is
    {e byte-identical} under any [domains] setting, shard layout, or
    resume history.  [test_sweep] pins this. *)

type point = {
  index : int;  (** position in the {!points} enumeration *)
  scenario : string;  (** builtin name or scenario-file path *)
  metric : Metric.kind;
  scale : float;
  seed : int;
}

type outcome = {
  point : point;
  hash : string;  (** the point's stable identity; see {!point_hashes} *)
  indicators : Measure.indicators;
}

(** One (scenario, metric) row of the Rzepka & Chołda-style
    route-stability ranking: each of the three change counters is
    averaged over the group's points and competition-ranked against the
    other groups (rank 1 + number of strictly smaller means); [r_score]
    sums the three per-counter ranks and [r_rank] is the row's 1-based
    position when ordered by score (ties keep spec order). *)
type ranking = {
  r_scenario : string;
  r_metric : Metric.kind;
  r_rank : int;
  r_score : int;
  r_route_changes : float;  (** mean route_changes_per_period *)
  r_nh_flips : float;  (** mean next_hop_flips_per_period *)
  r_link_flips : float;  (** mean link_flips_per_period *)
}

(** Where a (scenario, metric) pair's behaviour changes phase along a
    {!Sweep_spec.ramp}: the scale at which the round-trip-delay curve
    turns up ([k_scale_delay]) and the one at which delivered throughput
    flattens ([k_scale_throughput]), each located as the point farthest
    from the chord between the (seed-averaged, normalized) curve's
    endpoints.  Present only when the spec declared [critical_load] and
    the group covers at least 3 distinct scales. *)
type knee = {
  k_scenario : string;
  k_metric : Metric.kind;
  k_scale_delay : float;
  k_scale_throughput : float;
  k_delay_ms : float;  (** round_trip_delay_ms at [k_scale_delay] *)
  k_throughput_bps : float;
      (** internode_traffic_bps at [k_scale_throughput] *)
}

type report = {
  outcomes : outcome array;  (** one per covered point, in index order *)
  json : Obs_json.t;
      (** merged telemetry snapshot plus a ["points"] array of per-point
          indicator objects (each carrying its ["hash"]), a
          ["route_change_rankings"] section, and — under a
          [critical_load] ramp — a ["critical_load"] knee section *)
  rankings : ranking list;  (** ordered by score, most stable first *)
  knees : knee list;  (** in spec group order; [] without a ramp *)
}

val points : Sweep_spec.t -> point list
(** The grid in execution order: scenarios outermost, then metrics,
    scales, seeds. *)

(** {2 Parse-once preparation} *)

type prepared
(** A spec parsed once into immutable shared state: one {!Script.t} per
    scenario (a builtin topology is a script with no events),
    per-(scenario, seed) demand templates, and per-point hashes.  Every
    point runs through {!Script.run}.  All domains read it concurrently;
    nothing in it is written after {!prepare} returns. *)

val prepare : Sweep_spec.t -> prepared
(** Read and parse every scenario a single time and precompute the
    demand template for every (scenario, seed) pair.
    @raise Invalid_argument if a scenario file fails to parse (lint
    first — [arpanet_sweep] does) and [Sys_error] if one is
    unreadable. *)

val prepared_points : prepared -> point array

val point_hashes : prepared -> string array
(** [point_hashes prep].(i) identifies [prepared_points prep].(i): the
    MD5 of (scenario {e content} digest × scenario × metric × scale ×
    seed × periods × warmup) under a version tag.  Grid-shape
    independent — the same point keeps its hash when axes are added or
    the grid is re-sharded — and content-sensitive: editing a scenario
    file invalidates its points. *)

(** {2 Running} *)

val run_prepared :
  ?domains:int ->
  ?tracer:Tracer.t ->
  ?subset:(point -> bool) ->
  ?reuse:(string -> Measure.indicators option) ->
  prepared ->
  report
(** Run every prepared point and assemble the report.

    [domains] (default {!Domain_pool.resolve}[ ()]) sizes the pool
    points are distributed over — with a work-stealing handout, so
    heavy points don't serialize a static share behind them; each
    point's simulator runs with [~domains:1] so pools never nest.

    [subset] (default: everything) restricts the run to the points it
    accepts — the [--shard i/n] primitive.  Excluded points simply do
    not appear in the report; indices and hashes keep their full-grid
    values.

    [reuse] is consulted once per selected point with the point's hash;
    returning [Some indicators] adopts that answer without simulating —
    the [--resume] primitive.  Because registries regenerate from
    indicators, a resumed report is byte-identical to a fresh run.

    [tracer] (default {!Tracer.null}) flight-records the sweep: each
    simulated point becomes a ["sweep_point"] span (point index in its
    args) on the track of whichever worker domain ran it, the pool's
    block draining is probed, and inside every point the simulator's
    routing periods, SPF refreshes and floods record as usual.  The
    tracer never influences the report. *)

val run : ?domains:int -> ?tracer:Tracer.t -> Sweep_spec.t -> report
(** [run spec = run_prepared (prepare spec)]. *)

(** {2 Shards and resumes} *)

val stored_points :
  Obs_json.t -> ((string * Measure.indicators) list, string) result
(** Decode a report (or shard) produced by this module back into its
    (hash, indicators) pairs — everything a merge or resume needs.
    Floats round-trip exactly through the deterministic printer, so
    re-emitting a stored point is byte-stable. *)

val merge :
  ?allow_partial:bool -> prepared -> Obs_json.t list -> (report, string) result
(** Fold shard reports into one report for the prepared grid.  Points
    are matched purely by hash, so merge order and grouping cannot
    change the bytes: merging shards one at a time through partial
    intermediates equals merging them all at once.  Errors: a shard
    that does not decode, a hash outside the prepared grid (the spec or
    a scenario changed since the shard was written), two shards
    disagreeing about a point, or — unless [allow_partial] (default
    false) — grid points covered by no shard. *)

val csv : report -> string
(** One header line plus one row per point: grid coordinates (index,
    scenario, metric, scale, seed), then one column per
    {!Measure.fields} entry, named as there and in record order — the
    ten Table-1 indicators, the streamed one-way delay percentiles
    (p50/p95/p99, ms) and the per-period route-change counters (routes
    changed, A→B→A next-hop flips, per-link cost direction flips).
    Numbers print as in the JSON report. *)

val summary_csv : report -> string
(** The summary views as one CSV: a ["ranking"] row per
    (scenario, metric) with the route-change means, ranks and score,
    then a ["knee"] row per located critical-load knee.  Columns not
    applicable to a row's kind are empty.  Like the report itself, a
    pure function of the covered points — byte-identical across domain
    counts, shards and resumes. *)
