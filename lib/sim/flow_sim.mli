open! Import

(** The period-driven flow simulator.

    The paper's own §5 analysis works at the level of 10-second routing
    periods, M/M/1 delays and a traffic matrix; this simulator runs that
    control loop directly and is what powers the long experiments (Table 1,
    Fig 13, the Fig 1 oscillation traces):

    + every PSN routes on the currently flooded costs (one SPF tree per
      source, ties broken deterministically);
    + the traffic matrix flows over those routes; per-link offered load,
      utilization and drops follow;
    + each link's expected delay comes from the M/M/1 model at its
      utilization — the same transformation the real PSN's measurement
      would average;
    + one batch metric pass ({!Routing_metric.Metric.period_update_all})
      turns each up link's delay into its new cost; the links it floods
      come back grouped by origin, and each origin's run
      ({!Routing_flooding.Update.run_end}) is one update, flooded
      instantly.  Every PSN accepts it exactly once, so its overhead is
      exact without walking it: L_c - N_c + 1 transmissions over the
      origin's connected component
      ({!Routing_flooding.Broadcast.instant_transmissions}) times
      {!Routing_flooding.Update.wire_bits} for the links it reports,
      summed over the period's updates by
      {!Routing_flooding.Broadcast.instant_bits};
    + next period, everyone routes on the new costs.  "All the nodes in a
      network adjust their routes … simultaneously" (§3.2). *)

type period_stats = {
  time_s : float;  (** end of the period *)
  offered_bps : float;
  delivered_bps : float;
  dropped_bps : float;
  mean_delay_s : float;  (** delivered-traffic-weighted one-way delay *)
  mean_hops : float;  (** traffic-weighted actual path length *)
  mean_min_hops : float;
      (** traffic-weighted min-hop path length over the up links
          ({!Routing_topology.Graph_analysis.hop_counts_into}) *)
  updates : int;  (** routing updates flooded this period *)
  update_bits : float;  (** flooding bandwidth spent this period *)
  max_utilization : float;  (** hottest link *)
  congested_links : int;
      (** links offered more than 90 %% of capacity this period — §3.3's
          "spread of congestion" indicator *)
  routes_changed : int;
      (** flows whose first-hop link differs from the previous period —
          §3.3 item 3's per-flow route oscillation, counted *)
  next_hop_flips : int;
      (** route changes that returned to the first hop of two periods ago
          (A→B→A) — the sharpest oscillation signature, after Rzepka &
          Chołda's route-change counters *)
  link_flips : int;
      (** per-link flooded-cost direction flips this period, summed over
          links, from the simulator's own flip detector
          ({!Routing_obs.Oscillation}) *)
}

type t

val create :
  ?domains:int -> ?telemetry:Telemetry.t -> ?tracer:Tracer.t -> Graph.t ->
  Metric.kind -> Traffic_matrix.t -> t
(** The flow simulator is fully deterministic: same inputs, same run.
    [domains] (default {!Domain_pool.resolve}[ ()], i.e. the
    [ARPANET_DOMAINS] environment variable or 1) sizes the one domain pool
    three per-period passes fan out over: the SPF engine's full
    per-source recomputes (batches of at least 16,384 node-or-edge
    visits), and the source stripes of the load assignment and of the
    per-flow metrics pass (stores of at least 4,096 flows).  Repairs,
    smaller batches and the per-flow accounting stay on the calling
    domain.  Every configuration serves bit-identical trees, loads and
    per-flow metrics, so the domain count never changes results — only
    wall-clock time.

    [telemetry] (default none) attaches a telemetry bundle: per-link
    utilization/cost series and update counters accumulate in its metrics
    registry, each period emits a JSONL summary event through its sink,
    the period's six stages close their aggregates in its profile, and
    the simulator's flip detector — one {!Routing_obs.Oscillation.t}
    over every link's flooded cost, fed every period with or without a
    bundle — takes the bundle's threshold, counts and emits its flags
    and is the one the bundle's snapshot reports.  Everything recorded
    is deterministic (stage durations and words stay 0 unless the
    bundle uses {!Routing_obs.Span.wall}).

    [tracer] (default: the telemetry bundle's tracer, or {!Tracer.null})
    flight-records the run.  Each period's six stages — the routing
    period ([routing_period]) around the SPF refresh ([spf_refresh]),
    flow assignment ([flow_assign]), per-flow metrics pass
    ([flow_metrics]), per-flow accounting ([flow_account]) and flood
    ([flood]) — are one {!Routing_obs.Span.enter} / {!Routing_obs.Span.leave}
    pair each, a span on the calling domain's track under the same name
    as its profile row.  The SPF engine records its recompute/repair
    batches, and worker domains record the blocks of indices they
    claim.

    The simulator holds one SPF engine, the one it routes on.  The
    minimum-path baseline comes from a node × node hop table over the
    up links, built at the first period's accounting (never here) and
    again after {!set_link_up}. *)

val create_with :
  ?domains:int -> ?telemetry:Telemetry.t -> ?tracer:Tracer.t -> Graph.t ->
  Metric.t -> Traffic_matrix.t -> t
(** Use a pre-built metric — e.g. a custom-parameterized HNM from
    {!Routing_metric.Metric.create_custom_hnspf}. *)

val graph : t -> Graph.t

val metric : t -> Metric.t

val time_s : t -> float

val period_index : t -> int

val tick : t -> unit
(** Run one routing period, retaining its statistics in the simulator's
    struct-of-arrays history ({!step} without building the record).  Once
    warmed up — no topology or traffic change, no telemetry bundle,
    adaptive sources off, history columns not due to double — a tick
    allocates {e zero} minor words, quiet or flooding, even with a live
    {!Tracer} under its default untimed clock: floods are counted, not
    walked, and SPF trees are recomputed and repaired in place.  The
    allocation-regression tests pin this with [Gc.minor_words] on quiet
    periods and on Table 1's busy D-SPF and HN-SPF periods. *)

val step : t -> period_stats
(** Run one routing period and return its statistics (also retained
    internally for {!indicators}). *)

val run : t -> periods:int -> period_stats list
(** [periods] consecutive steps, in order. *)

val set_traffic : t -> Traffic_matrix.t -> unit
(** Replace the offered traffic from the next period on. *)

val set_flows : t -> Flow_store.t -> unit
(** Install a flow store directly — e.g. a host-level heavy-tailed store
    from {!Flow_store.heavy_tailed} with many flows per (src, dst) pair.
    AIMD throttles live in the store's throttle column, so the new store
    starts from its own column (fresh stores: all 1).  Above ~4k flows the
    per-period assignment and metrics passes fan source stripes over the
    domain pool with bit-identical results ({!Load_assign.assign},
    {!Load_assign.metrics_into}).
    @raise Invalid_argument if the store's node count differs from the
    graph's. *)

val flows : t -> Flow_store.t
(** The currently installed flow store (live, not a copy). *)

val switch_metric : t -> Metric.kind -> unit
(** Swap the metric mid-run — installing the HNM patch.  Link costs restart
    from the new metric's idle values and flood immediately, as a software
    reload would. *)

val set_link_up : t -> Link.id -> bool -> unit
(** Fail or restore one simplex link.  A restored HN-SPF link eases in at
    its maximum cost.  The min-hop table is rebuilt at the next period's
    accounting. *)

val set_adaptive_sources : t -> bool -> unit
(** Model end-to-end backoff (off by default): each flow's source reduces
    its sending rate multiplicatively when its path loses more than 2 %
    of its traffic in a period and recovers additively otherwise.  The
    1987 ARPANET's hosts did back off (TCP and the IMP end-to-end
    mechanisms), which is why the paper's Table 1 shows delivered traffic
    tracking offered traffic even under the unstable metric; without it
    the simulator offers the full matrix relentlessly.  Throttles are
    per-flow, stored unboxed in the flow store's throttle column; the
    adaptation step is one array pass.  Disabling resets every throttle
    to 1. *)

val link_utilization : t -> Link.id -> float
(** Utilization in the most recent period (0 before any step). *)

val link_cost : t -> Link.id -> int
(** Currently flooded cost. *)

val spf_stats : t -> Spf_engine.stats
(** Live counters of the SPF engine: how many refreshes were skipped
    outright (no significant update flooded), how many source trees were
    reused versus recomputed. *)

val route_change_totals : t -> int * int * int
(** [(routes_changed, next_hop_flips, link_flips)] summed over every
    period so far — the Rzepka & Chołda-style change counters the sweep
    reports publish per point. *)

val indicators : t -> ?skip:int -> unit -> Measure.indicators
(** Aggregate the retained per-period stats into Table-1 indicators,
    ignoring the first [skip] periods (default 0) as warm-up.
    @raise Invalid_argument when no periods remain. *)

val history : t -> period_stats list
(** All periods so far, oldest first. *)
