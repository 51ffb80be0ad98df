open! Import

(** The telemetry hookup {!Flow_sim} and {!Network} share.

    Both simulators record some things the same way, and this module is
    the one copy of them:
    - the routing-period phase spans ({!span_start} / {!span_stop}, the
      closure-free {!Routing_obs.Span} idiom);
    - the per-link [link_cost_hops] series: flooded cost over the
      link's idle cost, the paper's "reported cost in hops" axis
      (Figs 5–6);
    - the bundle's oscillation detector, its [oscillation_flags]
      counter and one [oscillation] JSONL event per calm→flagged
      transition;
    - the seven [spf_engine] gauges, one per {!Spf_engine.stats}
      counter.

    What differs stays in each simulator: its own counters (updates,
    drops, deliveries), series (utilization, cost, queue depth), JSONL
    events and GC accounts. *)

type t

val attach : Telemetry.t -> links:int -> t
(** Register the shared instruments in the bundle's registry and size
    its oscillation detector to [links], once, at simulator creation. *)

val link_label : int -> Obs_metrics.labels
(** [link=l<i>], the label every per-link instrument carries. *)

val span_start : Telemetry.t option -> float
(** Open a span: the bundle's profile clock, or 0 with no bundle. *)

val span_stop : Telemetry.t option -> string -> float -> unit
(** Close, under a static name, a span that {!span_start} opened.
    Without a bundle both hooks are one branch. *)

val observe_costs : t -> Graph.t -> Metric.t -> time:float -> unit
(** Once per routing period, after flooding: sample every link's
    flooded cost in hops and feed it to the oscillation detector.  The
    per-link idle costs it divides by are built on the first call and
    again only when the metric's kind changes. *)

val record_spf_stats : t -> Spf_engine.stats -> unit
(** Set the [spf_engine] gauges to the engine's current counters. *)
