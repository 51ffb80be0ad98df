open! Import

(** The telemetry hookup {!Flow_sim} and {!Network} share.

    Both simulators record some things the same way, and this module is
    the one copy of them:
    - the per-link [link_cost_hops] series: flooded cost over the
      link's idle cost, the paper's "reported cost in hops" axis
      (Figs 5–6);
    - the [oscillation_flags] counter and one [oscillation] JSONL event
      per calm→flagged transition of the simulator's own flip detector;
    - the seven [spf_engine] gauges, one per {!Spf_engine.stats}
      counter.

    What differs stays in each simulator: its own counters (updates,
    drops, deliveries), series (utilization, cost, queue depth), JSONL
    events and its routing-period stages ({!Routing_obs.Span.stage},
    into the bundle's profile and tracer). *)

type t

val attach : Telemetry.t -> links:int -> osc:Obs_oscillation.t -> t
(** Register the shared instruments for [links] links in the bundle's
    registry and have the bundle report [osc], the simulator's flip
    detector, once, at simulator creation. *)

val on_flag : t -> link:int -> tick:int -> flips:int -> unit
(** What a calm→flagged transition of the detector records: one
    [oscillation_flags] increment and one [oscillation] event stamped
    [tick] routing periods into the run.  Pass it to
    {!Routing_obs.Oscillation.observe}. *)

val link_label : int -> Obs_metrics.labels
(** [link=l<i>], the label every per-link instrument carries. *)

val observe_costs : t -> Graph.t -> Metric.t -> time:float -> unit
(** Once per routing period, after flooding: sample every link's
    flooded cost in hops.  The per-link idle costs it divides by are
    built on the first call and again only when the metric's kind
    changes. *)

val record_spf_stats : t -> Spf_engine.stats -> unit
(** Set the [spf_engine] gauges to the engine's current counters. *)
