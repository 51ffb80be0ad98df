(** Pluggable structured-event writers.

    A sink receives a stream of JSON events and serializes each as one
    JSONL line.  Three writers cover every use: a file (the canonical
    trace of a run, [--trace-out]), an in-memory buffer (tests read the
    stream back), and a null sink that discards everything.  The
    simulators stream every event here rather than into a bounded ring:
    a default packet-level run of the peak-hour ARPANET writes close to
    a million events, far more than any ring keeps.

    Event construction is the expensive part, so emission is lazy: callers
    pass a thunk and {!emit} never forces it on an inactive sink — a
    disabled telemetry path costs one branch, nothing more. *)

type t

val null : t
(** Discards events; {!active} is [false] so producers skip event
    construction entirely. *)

val buffer : unit -> t
(** Accumulates lines in memory; read them back with {!contents}. *)

val file : string -> t
(** Opens (truncating) [path] and writes one line per event.  {!close}
    flushes and closes the channel. *)

val emit : t -> (unit -> Json.t) -> unit
(** Serialize one event.  The thunk is not called when the sink is
    inactive. *)

val emitted : t -> int
(** Events written so far. *)

val contents : t -> string
(** Everything written, for {!buffer} sinks.
    @raise Invalid_argument on other sinks. *)

val close : t -> unit
(** Close a {!file} sink's channel (a no-op for the others).  Emitting
    after [close] raises. *)
