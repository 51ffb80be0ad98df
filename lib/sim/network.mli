open! Import

(** The packet-level ARPANET simulator.

    Assembles PSNs, link transmitters, a Poisson workload, a metric and the
    flooding protocol over a discrete-event engine and runs the full
    control loop: per-packet delay measurement → 10-second averaging →
    metric transformation → significance filtering → flooding → SPF
    recomputation → forwarding.

    Each routing period closes every up link's measurement window and
    hands the averages to the metric pass every simulator shares,
    {!Routing_metric.Metric.period_update_all}.  The links it floods
    come back grouped by origin, and each origin's run is one update,
    originated in ascending origin order: under instant flooding the
    period's updates are charged their topology-constant transmissions
    at once ({!Routing_flooding.Broadcast.instant_bits}) and build no
    list;
    hop by hop, its [(link, cost)] payload (ascending link order) is
    built from the run.

    The one deliberate simplification (shared with the paper's own model)
    is that a flooded update takes effect network-wide within the routing
    period it was generated in: "all the nodes in a network adjust their
    routes … simultaneously" because update processing outruns data traffic
    (§3.2).  The flooding protocol still runs in full to account for its
    bandwidth.

    Routing holds one shared SPF engine (instant flooding) or one tree
    per node (hop by hop).  The minimum-path baseline a delivery is
    measured against is a node × node hop table over the up links
    ({!Routing_topology.Graph_analysis.hop_counts_into}), filled at
    creation and again whenever a link fails or revives. *)

type config = {
  metric : Metric.kind;
  seed : int;
  record_series : bool;  (** keep per-period cost/utilization series *)
  instant_flooding : bool;
      (** [true] (default): a flooded update takes effect network-wide
          within its period — the paper's synchrony assumption.  [false]:
          updates travel hop-by-hop as priority control packets with
          per-line acknowledgement and retransmission (Rosen's updating
          protocol); each node keeps its own route tree on its own view of
          the costs and repairs it in place on every fresh receipt (§2.2's
          incremental adjustment, bit-identical to recomputing it; brief
          inconsistency windows between nodes are possible), and
          {!flood_latency_stats} measures how long floods actually take —
          validating that they are far faster than the 10-second
          period. *)
  line_error_rate : float;
      (** per-packet probability that a line corrupts a transmission
          (default 0).  Data packets are simply lost; control packets are
          retransmitted until acknowledged. *)
  domains : int;
      (** domain-pool size for the shared SPF engine (instant flooding
          only), which fans out only full recomputes of at least 16,384
          node-or-edge visits.  Defaults to {!Domain_pool.resolve}[ ()] —
          the [ARPANET_DOMAINS] environment variable, or 1.  Never changes
          results, only wall-clock time. *)
  telemetry : Telemetry.t option;
      (** attach a telemetry bundle (default [None]): every {!Trace} event
          is counted in its metrics registry and streamed as one JSONL
          line through its sink, per-link utilization/cost/queue-depth
          series accumulate in the registry, and {!Telemetry_hooks} adds
          what the flow simulator records the same way — the
          cost-in-hops series, the flag counter and events of a flip
          detector ({!Routing_obs.Oscillation}) the network creates
          with the bundle and feeds every link's flooded cost each
          period, and the SPF engine gauges.  The three
          routing-period stages, [routing_period] around [flood] and
          the instant-flooding [spf_refresh], are one
          {!Routing_obs.Span.enter} / {!Routing_obs.Span.leave} pair
          each, into the bundle's profile and its tracer at once; the
          tracer also flight-records the SPF engine and the domain
          pool.  All recorded data is deterministic for a fixed [seed]
          (stage durations and words stay 0 unless the bundle was
          created with {!Routing_obs.Span.wall}). *)
}

val default_config : Metric.kind -> config
(** Seed 42, series on, instant flooding, error-free lines, the
    [ARPANET_DOMAINS] domain count, no telemetry.  Fixed for every run, so
    the packet simulator agrees with the flow model: K = 40
    store-and-forward buffers per line
    ({!Routing_metric.Queueing.buffer_capacity}), exponential packets
    with the 600-bit mean of the HNM's M/M/1 model, a 64-hop TTL and a
    1 s control retransmission timer. *)

type t

val create : ?config:config -> Graph.t -> Traffic_matrix.t -> t
(** Builds everything and installs initial routing tables; the workload
    starts when {!run} is first called.  Default config:
    [default_config Hn_spf]. *)

val graph : t -> Graph.t

val metric : t -> Routing_metric.Metric.t

val engine : t -> Engine.t

val run : t -> duration_s:float -> unit
(** Advance the simulation; may be called repeatedly to run in stages. *)

val indicators : t -> Measure.indicators
(** Aggregated over everything since creation (or the last
    {!reset_measurements}). *)

val reset_measurements : t -> unit
(** Forget accumulated statistics (e.g. after warm-up). *)

val set_link_up : t -> Link.id -> bool -> unit
(** Take one simplex link down or bring it back (its reverse is separate).
    Coming back up, an HN-SPF link eases in at maximum cost (§5.4).  The
    min-hop table and the routing tables are rebuilt at once. *)

val cost_series : t -> Link.id -> Routing_stats.Time_series.t
(** Per-period flooded cost of a link (empty unless [record_series]). *)

val utilization_series : t -> Link.id -> Routing_stats.Time_series.t

val flood_latency_stats : t -> Routing_stats.Welford.t
(** Origination-to-acceptance latencies over all (node, update) pairs —
    only populated when [instant_flooding = false]. *)

val median_delay_ms : t -> float
(** Streaming one-way delay median since creation or the last
    {!reset_measurements}. *)

val p95_delay_ms : t -> float

val delivered_packets : t -> int

val dropped_packets : t -> int

val generated_packets : t -> int

val spf_stats : t -> Spf_engine.stats
(** Live counters of the shared instant-flooding SPF engine — refreshes
    skipped vs incremental vs full, trees reused vs recomputed (see
    {!Routing_spf.Spf_engine.stats}).  Under hop-by-hop flooding each node
    repairs its own tree instead, the shared engine never runs, and every
    counter reads 0. *)

