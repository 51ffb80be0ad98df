open! Import

(** One simplex link's transmitter: a FIFO buffer in front of the line.

    Packets (ids in a {!Packet.pool}) queue while the line is busy;
    transmission time is [bits / capacity]; arrival at the far PSN is an
    {!Engine.arrival} event one propagation delay after transmission
    completes.  The buffer is finite (C/30 IMPs had a handful of
    store-and-forward buffers per line) — a full buffer drops the packet,
    which is the congestion signal Fig 13 counts.

    When a data packet finishes transmission the queue folds its total
    link delay (queueing + transmission + propagation) into the link's
    {!Measurement.t} — exactly the per-packet quantity the PSN's
    10-second measurement averages (§2.2).

    Waiting packets sit in int rings: a data ring bounded by the buffer
    and a priority ring that grows by doubling.  Completions are
    {!Engine.transmission_complete} events carrying the link's epoch,
    which a line failure bumps: a completion scheduled before the line
    went down finds a different epoch and leaves the packet slot (freed
    with the line, perhaps reused since) alone.  Queueing a packet and
    taking it off a ring allocate nothing. *)

type t

type drop_reason = Buffer_full | Line_down | Corrupted

val default_buffer_packets : int
(** {!Routing_metric.Queueing.buffer_capacity} (40) store-and-forward
    buffers per line, keeping the packet simulator and the flow simulator's
    M/M/1/K model consistent. *)

val create :
  ?buffer_packets:int ->
  ?error_rate:float ->
  ?rng:Routing_stats.Rng.t ->
  Engine.t ->
  Packet.pool ->
  Link.t ->
  Measurement.t ->
  on_drop:(drop_reason -> int -> unit) ->
  t
(** [error_rate] (default 0) is the per-packet probability that the line
    corrupts a transmission: the packet occupies the line (and is
    measured) but never arrives — 1980s trunks had real bit-error rates,
    which is what made the updating protocol's per-line retransmission
    necessary (Rosen 1980).  Requires [rng] when nonzero.  [on_drop]
    sees every packet the line loses before the queue frees its id. *)

val link : t -> Link.t

val enqueue : t -> int -> unit
(** Accept a packet for transmission (or drop it if the buffer is full). *)

val enqueue_priority : t -> int -> unit
(** Accept a routing-update packet: "routing update processing is a high
    priority process within the PSN" (§3.2), so these jump every waiting
    data packet (but not the one already on the wire) and are never
    dropped for buffer exhaustion.  They do not contribute to the delay
    measurement. *)

val complete : t -> int -> unit
(** Run an {!Engine.transmission_complete} event for this link, given
    the epoch it carries: count and measure the packet, schedule its
    arrival (or lose it to a line error), and start the next
    transmission.  A stale epoch does nothing. *)

val queue_length : t -> int
(** Packets waiting or in transmission right now — the 1969 metric's
    instantaneous sample. *)

val set_up : t -> bool -> unit
(** A downed link drops everything it holds and everything enqueued. *)

val transmitted_packets : t -> int

val transmitted_bits : t -> float

val dropped_packets : t -> int
(** Cumulative counters; window-based statistics are derived by snapshotting
    them at window boundaries (see {!Measure}). *)
