(** Flight recorder: per-domain ring buffers of trace events.

    A tracer owns one preallocated struct-of-arrays ring per domain that
    has ever emitted through it.  Recording an event writes a timestamp
    and three ints into the domain's ring — no allocation, no locking —
    so the recorder can stay on the simulator's hot path.  When a ring is
    full the oldest events are overwritten and counted as dropped.  A
    disabled tracer (and {!null}) costs one branch per call, like
    {!Sink.emit}.

    Event names are interned up front ({!intern}, cold, locked); the hot
    emitters take the integer id.  Rings are registered lazily on a
    domain's first event (also cold and locked); the creating domain is
    registered eagerly so it always owns slot 0.

    Export is offline: {!iter_slot} walks one ring oldest-to-newest, and
    {!Trace_export} turns the whole tracer into Chrome trace-event JSON.

    Both simulators record into the tracer of their telemetry bundle:
    their routing-period stages (through {!Span}, which writes each
    stage's begin and end here and closes its aggregate in the bundle's
    profile at the same call), their SPF engines' spans, the domain
    pool's chunks and, in the flow simulator, per-period counters.  The
    packet simulator's own events (deliveries, drops, floods) are too
    many for a ring and stream through the bundle's {!Sink} instead. *)

type t

type clock =
  | Untimed
      (** Timestamps are per-ring sequence numbers (0, 1, 2, …):
          deterministic across runs, totally ordered within a track. *)
  | Wall  (** [Unix.gettimeofday], through {!now}. *)
  | Fn of (unit -> float)  (** Custom clock, e.g. for tests. *)

type kind = Begin | End | Instant | Counter

val create : ?capacity:int -> ?clock:clock -> unit -> t
(** A live tracer.  [capacity] (default 65536) is the number of events
    retained per domain, rounded up to a power of two (minimum 16).
    Default clock is {!Untimed}. *)

val null : t
(** Permanently disabled; every emitter is a single branch. *)

val enabled : t -> bool

val capacity : t -> int

val clock : t -> clock

val now : clock -> float
(** Read a clock: 0 under {!Untimed}.  The one place a wall clock is
    read; {!Span}'s profiles read theirs through it too. *)

(** {1 Recording} *)

val intern : t -> string -> int
(** Id for an event name; the same string always yields the same id.
    Cold path (takes a lock) — intern at setup, not per event.  Returns
    [0] on a disabled tracer. *)

val span_begin : t -> int -> unit

val span_begin_range : t -> int -> lo:int -> hi:int -> unit
(** Begin a span that covers loop indices [lo..hi-1]; the range rides in
    the event's [a]/[b] args. *)

val span_end : t -> int -> unit

val instant : t -> int -> arg:int -> unit

val counter : t -> int -> value:int -> unit

val pool_probe : t -> Routing_metric.Domain_pool.probe
(** A {!Routing_metric.Domain_pool.probe} that records every chunk a
    worker domain drains as a span on that domain's track.  Chunks whose
    job carried no label record under ["pool_chunk"]. *)

(** {1 Inspection / export} *)

val slots : t -> int
(** Number of domains that have recorded so far. *)

val slot_recorded : t -> int -> int
(** Events ever written to a slot (including since-overwritten ones). *)

val slot_dropped : t -> int -> int
(** Events overwritten in a slot: [max 0 (recorded - capacity)]. *)

val dropped : t -> int
(** Total dropped across all slots. *)

val name : t -> int -> string
(** The interned name for an id ("?" if unknown). *)

val iter_slot :
  t -> int -> (ts:float -> kind:kind -> name:int -> a:int -> b:int -> unit) -> unit
(** Walk a slot's retained events oldest-to-newest.  Not synchronized
    with writers: call after the traced work has quiesced. *)
