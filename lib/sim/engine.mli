(** Discrete-event simulation engine: a clock, an event queue and one
    dispatch function.

    An event is an int row: a kind and two int operands.  The engine
    pops rows in [(time, insertion)] order and hands each to the
    dispatch function installed with {!set_dispatch}, so firing an event
    allocates nothing, and scheduling one at most boxes the delay the
    caller computed (nothing where {!schedule} inlines, as in release
    builds).  The clock only moves when events fire; scheduling in the
    past is an error.  All of the packet simulator's behaviour is
    expressed as events scheduled here. *)

type t

type clock = Event_queue.clock = private { mutable now : float }
(** The current time as an unboxed float, readable without a call. *)

(** {2 Event kinds}

    The packet simulator's five kinds and what their operands carry. *)

val transmission_complete : int
(** [a] = link id, [b] = the link's epoch when transmission began; the
    packet is the one the link holds in flight. *)

val arrival : int
(** [a] = the link just crossed, [b] = packet id. *)

val generate : int
(** [a] = workload flow index. *)

val retransmit : int
(** [a] = link id, [b] = update token. *)

val routing_period : int
(** No operands. *)

val create : unit -> t
(** An engine whose dispatch ignores every event until {!set_dispatch}. *)

val set_dispatch : t -> (int -> int -> int -> unit) -> unit
(** Install the one handler: [f kind a b] runs each event as it fires. *)

val now : t -> float
(** Current simulation time, seconds; starts at 0. *)

val clock : t -> clock
(** The engine's clock, for hot paths that read the time unboxed. *)

val schedule : t -> after:float -> kind:int -> a:int -> b:int -> unit
(** Fire the event [after] seconds from now.  @raise Invalid_argument on
    a negative delay. *)

val schedule_at : t -> at:float -> kind:int -> a:int -> b:int -> unit
(** @raise Invalid_argument when [at] is before {!now}. *)

val run_until : t -> float -> unit
(** Fire all events with time ≤ the horizon, advancing the clock; the clock
    ends at the horizon even if the queue empties early. *)

val events_processed : t -> int

val pending : t -> int
