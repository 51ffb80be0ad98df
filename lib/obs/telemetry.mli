(** The bundle a simulator carries: one registry, one event sink, one
    stage profile, one flight recorder and (once the simulator adopts
    its own) one oscillation detector.

    Simulators accept [?telemetry] and do nothing when it is absent — the
    disabled path is a single [match] per hook.  A simulator records its
    routing-period stages ({!Span.stage}) into the bundle's profile and
    tracer together.  The CLI builds one bundle per run from
    [--trace-out] / [--metrics-out] / [--chrome-trace] / [--profile] and
    reads everything back out at end of run. *)

type t

val create :
  ?sink:Sink.t ->
  ?clock:Span.clock ->
  ?tracer:Tracer.t ->
  ?osc_max_flips:int ->
  unit ->
  t
(** [sink] defaults to {!Sink.null}; [clock], the stage profile's, to
    {!Span.untimed} (so durations and words stay deterministic — pass
    {!Span.wall} for a real profile with per-stage minor words);
    [tracer] to {!Tracer.null} (pass a live one to flight-record the
    run).  [osc_max_flips] (default 4) is the threshold of the
    oscillation detector the attached simulator creates. *)

val metrics : t -> Metrics.t

val sink : t -> Sink.t

val spans : t -> Span.t

val tracer : t -> Tracer.t

val osc_max_flips : t -> int
(** The flip threshold given at {!create}. *)

val adopt_oscillation : t -> Oscillation.t -> unit
(** Report this detector in the snapshot: the one the attached
    simulator owns and feeds every routing period. *)

val oscillation : t -> Oscillation.t option
(** The adopted detector, if a simulator has attached. *)

val snapshot_json : t -> Json.t
(** Metrics snapshot with the stage profile and oscillation summary
    appended — what [--metrics-out] writes. *)

val write_metrics : t -> string -> unit
(** {!snapshot_json} through {!Metrics.write_file}: pretty-printed, with
    a trailing newline — the [--metrics-out] file. *)

val close : t -> unit
(** Close the sink (flush the trace file). *)
