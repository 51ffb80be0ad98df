open! Import

(** Packets in the packet-level simulator: user data, or routing-update
    control traffic (which rides the priority lane and is consumed
    hop-by-hop by the flooding logic).

    Packets live in a pool, a structure of arrays indexed by packet id:
    int columns for the endpoints, kind, update token and hop count, and
    unboxed float columns for the size and the creation and enqueue
    times.  Freed ids go on a free list and are handed out again; the
    columns double when every id is live, so a simulation reaches its
    steady size during warm-up and then allocates nothing per packet.
    Each id is freed exactly once, by whoever consumes the packet:
    delivery, any drop, or the flooding logic taking in a control packet
    or an acknowledgement. *)

type pool

val data : int
(** Kind of a user packet. *)

val control : int
(** Kind of a routing update in flight over one line; its token indexes
    the simulator's in-flight update table. *)

val ack : int
(** Kind of the per-line acknowledgement of a [control] packet. *)

val create : Engine.clock -> pool
(** An empty pool that stamps each packet's creation time from the
    clock. *)

val alloc : pool -> kind:int -> src:int -> dst:int -> token:int -> bits:float -> int
(** A fresh packet id: created now, zero hops, not yet enqueued.  [src]
    and [dst] are node ids; [token] is meaningful for control packets and
    acknowledgements only. *)

val free : pool -> int -> unit
(** Return an id to the pool.  @raise Invalid_argument if it is not
    live. *)

val live : pool -> int
(** Ids allocated and not yet freed. *)

val kind : pool -> int -> int

val src : pool -> int -> int

val dst : pool -> int -> int

val token : pool -> int -> int

val hops : pool -> int -> int
(** Links traversed so far. *)

val add_hop : pool -> int -> unit

val bits : pool -> int -> float

(** {2 Float columns}

    Hot paths in other modules index these directly, so no float crosses
    a call boxed.  A column is replaced when the pool grows: fetch it
    again after any {!alloc}. *)

val bits_column : pool -> float array

val created_column : pool -> float array

val enqueued_column : pool -> float array
(** When the packet last entered a line's queue; written by
    {!Link_queue}. *)
