(** Time-ordered event queue for the discrete-event engine.

    An event is an int row [(kind, a, b)] due at a float time: [kind]
    names what happens and [a]/[b] are its two operands (a link, a
    packet, a flow, an epoch, a token — see {!Engine}).  Events at equal
    times fire in insertion order (a strict FIFO tie-break), which keeps
    simulations deterministic.

    Two tiers in one order.  A row due within about a second of the
    clock goes to a time wheel of 1,024 buckets of 2⁻¹⁰ s, each a list
    sorted by (time, seq), where a push walks a few rows of one bucket
    and a pop unlinks a bucket's head; every other row goes to a 4-ary
    min-heap.  {!pop_min} takes the earlier of the two heads,
    so events pop in exactly the order one heap would give.  Both tiers
    are structures of arrays — unboxed float columns of times beside int
    columns of sequence numbers, kinds and operands — so neither
    scheduling nor draining allocates: {!pop_min} advances the queue's
    {!clock} to the popped time and leaves the operands in
    {!popped_a}/{!popped_b}.  The heap's columns and the wheel's row
    pool double when full. *)

type t

type clock = { mutable now : float }
(** An all-float record, so the time is stored (and read from other
    modules) unboxed. *)

val create : unit -> t

val clock : t -> clock
(** The time of the last popped event (0 before any pop); {!add_after}
    schedules relative to it. *)

val is_empty : t -> bool

val length : t -> int

val add : t -> time:float -> kind:int -> a:int -> b:int -> unit
(** @raise Invalid_argument on NaN time. *)

val add_after : t -> after:float -> kind:int -> a:int -> b:int -> unit
(** [add_after t ~after] is [add t ~time:((clock t).now +. after)], with
    the sum formed here so no float crosses a module boundary. *)

val due : t -> float -> bool
(** [due t horizon]: the queue is non-empty and its earliest event is at
    or before [horizon]. *)

val pop_min : t -> int
(** Remove the earliest event (FIFO among ties), set the clock to its
    time and return its kind; its operands are then {!popped_a} and
    {!popped_b}.
    @raise Invalid_argument on an empty queue. *)

val popped_a : t -> int

val popped_b : t -> int

val advance_to : t -> float -> unit
(** Move the clock forward to the given time if it is later. *)
