(** Stage recording: one call at each boundary of a simulator's
    routing-period stages, into the flight recorder and a profile.

    A {!stage} is resolved once, when a simulator is created: its
    interned {!Tracer} id and, given a profile, its aggregate there.
    {!enter} then writes the tracer's begin event and {!leave} its end
    event and closes the aggregate — call count, durations and, on a
    timed clock, the minor words the stage allocated.  With a disabled
    tracer and no profile each is one branch; with a live untimed tracer
    neither allocates (nor with an untimed profile, once its quantile
    estimators hold five observations), so the simulators call them on
    paths that must not allocate.

    A profile owns a clock, a {!Tracer.clock}.  The default {!untimed}
    reads 0, so stages count calls but report zero durations and words —
    that keeps every telemetry artifact byte-deterministic for a fixed
    simulator seed.  Pass {!wall} for a real per-stage profile; the
    simulators' bundles do this under [--profile]. *)

type t
(** A profile: one aggregate per stage name. *)

type clock = Tracer.clock

val untimed : clock
(** Always 0: stages count calls, durations and words stay 0.  The
    default. *)

val wall : clock
(** Monotonic wall-clock seconds. *)

val create : ?clock:clock -> unit -> t

(** {1 Stages} *)

type stage

val stage : ?profile:t -> Tracer.t -> string -> stage
(** [stage ?profile tracer name]: a stage recording under [name] into
    [tracer] and, when given, [profile].  Cold: interns the name and
    finds or adds the profile's aggregate, so stages of one name share
    it. *)

val enter : stage -> unit
(** Open the stage: the tracer's begin event and, on a timed profile,
    the clock and allocation readings the matching {!leave} closes. *)

val leave : stage -> unit
(** Close the stage {!enter} opened.  Stages nest.  Under a timed
    clock, a stage's words are its own: the recorder measures the words
    its own bookkeeping allocates (clock reads, quantile updates) and
    subtracts them from every open stage, nested stages' included.  A
    stage whose code raises before [leave] is simply not counted. *)

(** {1 Report} *)

type row = {
  name : string;
  count : int;
  total_s : float;
  max_s : float;
  p50_s : float;  (** P² estimate of the median duration *)
  p95_s : float;
  p99_s : float;
  minor_words : float;  (** minor words allocated over all calls *)
}

val report : t -> row list
(** One row per stage name, sorted by name.  Percentiles are streaming
    P² estimates ({!Routing_stats.Quantile}): exact below five
    observations, 0 when a stage never closed. *)

val to_json : t -> Json.t

val pp : Format.formatter -> t -> unit
(** Profile table sorted by descending total time, with minor words per
    call, for [--profile]. *)
