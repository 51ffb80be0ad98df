open! Import

(** Poisson packet workload driven by a traffic matrix.

    Every nonzero demand becomes an independent Poisson packet process with
    exponentially distributed packet sizes (mean 600 bits — the network-wide
    average the HNM's M/M/1 model assumes).  All draws come from the given
    {!Rng.t}, so runs are reproducible: a flow's gap is drawn when its
    next {!Engine.generate} event is scheduled, the packet's size when the
    event fires.  Packets are allocated from the simulator's pool and
    handed to [inject] by id. *)

type size = Fixed of float | Exponential of float
(** Packet size in bits, fixed or the mean of an exponential draw.  Every
    packet carries at least 64 bits (one header).  A flow's packet rate
    is its demand divided by this mean; a fixed size below 64 bits
    counts as 64. *)

type t

val create :
  ?size:size ->
  Rng.t ->
  Engine.t ->
  Packet.pool ->
  Traffic_matrix.t ->
  inject:(int -> unit) ->
  t
(** Default size: [Exponential 600.]. *)

val start : t -> unit
(** Schedule the first arrival of every flow.  Each arrival reschedules the
    next, so the workload runs until {!stop}. *)

val fire : t -> int -> unit
(** Run an {!Engine.generate} event for the given flow: inject one packet
    and schedule the flow's next. *)

val stop : t -> unit
(** No further packets are injected (already-scheduled events fire but do
    nothing). *)

val set_scale : t -> float -> unit
(** Multiply every flow's rate by the factor (applies to subsequently drawn
    inter-arrival times) — used for traffic-growth scenarios. *)

val generated_packets : t -> int
