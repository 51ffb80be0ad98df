open! Import

(** The packet-level ARPANET simulator.

    Assembles PSNs, link transmitters, a Poisson workload, a metric and the
    flooding protocol over a discrete-event engine and runs the full
    control loop: per-packet delay measurement → 10-second averaging →
    metric transformation → significance filtering → flooding → SPF
    recomputation → forwarding.

    The one deliberate simplification (shared with the paper's own model)
    is that a flooded update takes effect network-wide within the routing
    period it was generated in: "all the nodes in a network adjust their
    routes … simultaneously" because update processing outruns data traffic
    (§3.2).  The flooding protocol still runs in full to account for its
    bandwidth. *)

type config = {
  metric : Metric.kind;
  buffer_packets : int;  (** store-and-forward buffers per line *)
  packet_size : Workload.size;
  seed : int;
  ttl_hops : int;  (** discard packets exceeding this hop count *)
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
  retransmit_interval_s : float;  (** control retransmission timer (1 s) *)
  trace_capacity : int;
      (** keep the most recent N structured {!Trace} events (0, the
          default, disables tracing) *)
  domains : int;
      (** domain-pool size for the shared SPF engine (instant flooding
          only).  Defaults to {!Domain_pool.default_size} — the
          [ARPANET_DOMAINS] environment variable, or 1.  Never changes
          results, only wall-clock time. *)
  telemetry : Telemetry.t option;
      (** attach a telemetry bundle (default [None]): every {!Trace} event
          is serialized as JSONL through the bundle's sink, drop/delivery/
          update counters and per-link cost/utilization/queue-depth series
          accumulate in its metrics registry, SPF refreshes and routing
          periods run inside profiling spans, and the oscillation detector
          watches every link's flooded cost.  All recorded data is
          deterministic for a fixed [seed] (span durations stay 0 unless
          the bundle was created with {!Routing_obs.Span.wall}). *)
}

val default_config : Metric.kind -> config
(** 40 buffers, exponential 600-bit packets, seed 42, ttl 64, series on,
    instant flooding. *)

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
    Coming back up, an HN-SPF link eases in at maximum cost (§5.4). *)

val cost_series : t -> Link.id -> Routing_stats.Time_series.t
(** Per-period flooded cost of a link (empty unless [record_series]). *)

val utilization_series : t -> Link.id -> Routing_stats.Time_series.t

val trace_events : t -> (float * Trace.event) list
(** Retained trace events, oldest first (empty when tracing is off). *)

val dump_trace : t -> string
(** Human-readable rendering of the retained trace. *)

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

val telemetry : t -> Telemetry.t option
(** The bundle passed in via {!config.telemetry}, if any. *)
