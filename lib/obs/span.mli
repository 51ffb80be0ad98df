(** Span-based profiling: name a region, time it, aggregate where the
    time went.

    A span is recorded in one idiom: read {!clock_now}, run
    straight-line code, then {!record} under a static name.  No closure
    is allocated, so the simulators' routing periods record their phases
    this way on paths that must not allocate.

    A profile owns a clock.  The default clock always reads 0, so spans
    count invocations but report zero duration — that keeps every
    telemetry artifact byte-deterministic for a fixed simulator seed.
    Pass {!wall} (monotonic wall time) to get a real per-phase profile;
    the simulators do this under [--profile]. *)

type t

type clock = unit -> float

val untimed : clock
(** Always 0: spans count calls, durations stay 0.  The default. *)

val wall : clock
(** Monotonic wall-clock seconds. *)

val create : ?clock:clock -> unit -> t

val clock_now : t -> float
(** Read the profile's clock: the start of a span. *)

val record : t -> name:string -> started:float -> unit
(** Close a span opened at [started] (a {!clock_now} reading).  Nested
    spans are fine; each contributes its own elapsed time.  A span whose
    code raises before [record] is simply not counted. *)

type row = {
  name : string;
  count : int;
  total_s : float;
  max_s : float;
  p50_s : float;  (** P² estimate of the median duration *)
  p95_s : float;
  p99_s : float;
}

val report : t -> row list
(** One row per span name, sorted by name.  Percentiles are streaming P²
    estimates ({!Routing_stats.Quantile}): exact below five observations,
    0 when a span never closed. *)

val to_json : t -> Json.t

val pp : Format.formatter -> t -> unit
(** Profile table sorted by descending total time, for [--profile]. *)
