(** The bundle a simulator carries: one registry, one event sink, one span
    profile, and (once the simulator declares its link count) one
    oscillation detector.

    Simulators accept [?telemetry] and do nothing when it is absent — the
    disabled path is a single [match] per hook.  The CLI builds one bundle
    per run from [--trace-out] / [--metrics-out] / [--profile] and reads
    everything back out at end of run. *)

type t

val create :
  ?sink:Sink.t ->
  ?clock:Span.clock ->
  ?tracer:Tracer.t ->
  ?gc:bool ->
  ?osc_window_s:float ->
  ?osc_max_flips:int ->
  unit ->
  t
(** [sink] defaults to {!Sink.null}; [clock] to {!Span.untimed} (so span
    durations stay deterministic — pass {!Span.wall} for a real profile);
    [tracer] to {!Tracer.null} (pass a live one to flight-record the run).
    [gc] turns on {!Gc_account} sections around routing periods and major
    phases (default off: GC counters are compiler-version-dependent, so
    deterministic-artifact tests keep them out).  The oscillation
    parameters are stored for {!init_oscillation}. *)

val metrics : t -> Metrics.t

val sink : t -> Sink.t

val spans : t -> Span.t

val tracer : t -> Tracer.t

val gc_enabled : t -> bool

val init_oscillation : t -> links:int -> Oscillation.t
(** Create (or return the already-created) detector sized to the
    simulator's link count, with the window/threshold given at
    {!create}. *)

val oscillation : t -> Oscillation.t option

val snapshot_json : t -> Json.t
(** Metrics snapshot with the span profile and oscillation summary
    appended — what [--metrics-out] writes. *)

val write_metrics : t -> string -> unit
(** {!snapshot_json} through {!Metrics.write_file}: pretty-printed, with
    a trailing newline — the [--metrics-out] file. *)

val close : t -> unit
(** Close the sink (flush the trace file). *)
