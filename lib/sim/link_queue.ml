open! Import

module Rng = Routing_stats.Rng

type drop_reason = Buffer_full | Line_down | Corrupted

(* An all-float record, so adding to the total stores an unboxed float
   (a mutable float field of [t] would box on every write). *)
type totals = { mutable bits : float }

type t = {
  engine : Engine.t;
  clock : Engine.clock;
  pool : Packet.pool;
  link : Link.t;
  lid : int;
  capacity_bps : float;
  measurement : Measurement.t;
  buffer_packets : int;
  error_rate : float;
  rng : Rng.t option;
  (* Data ring of packet ids, bounded by the buffer. *)
  ring : int array;
  mutable head : int;
  mutable count : int;
  (* Priority ring, power-of-two capacity, doubled when full. *)
  mutable prio : int array;
  mutable prio_head : int;
  mutable prio_count : int;
  mutable in_flight : int; (* packet on the wire; -1 when idle *)
  mutable in_flight_priority : bool;
  mutable up : bool;
  mutable epoch : int; (* bumped on link-down: invalidates in-flight events *)
  on_drop : drop_reason -> int -> unit;
  mutable transmitted : int;
  totals : totals;
  mutable dropped : int;
}

let default_buffer_packets = Queueing.buffer_capacity

let create ?(buffer_packets = default_buffer_packets) ?(error_rate = 0.) ?rng
    engine pool link measurement ~on_drop =
  if error_rate > 0. && rng = None then
    invalid_arg "Link_queue.create: error_rate needs an rng";
  { engine;
    clock = Engine.clock engine;
    pool;
    link;
    lid = Link.id_to_int link.Link.id;
    capacity_bps = Link.capacity_bps link;
    measurement;
    buffer_packets;
    error_rate;
    rng;
    ring = Array.make (max 1 buffer_packets) 0;
    head = 0;
    count = 0;
    prio = Array.make 8 0;
    prio_head = 0;
    prio_count = 0;
    in_flight = -1;
    in_flight_priority = false;
    up = true;
    epoch = 0;
    on_drop;
    transmitted = 0;
    totals = { bits = 0. };
    dropped = 0 }

let link t = t.link

let queue_length t =
  t.count + t.prio_count + if t.in_flight >= 0 then 1 else 0

(* --- The rings --- *)

let ring_push t p =
  let cap = Array.length t.ring in
  let i = t.head + t.count in
  t.ring.(if i >= cap then i - cap else i) <- p;
  t.count <- t.count + 1
[@@hot_path]

let ring_pop t =
  let p = t.ring.(t.head) in
  let h = t.head + 1 in
  t.head <- (if h = Array.length t.ring then 0 else h);
  t.count <- t.count - 1;
  p
[@@hot_path]

(* Out of line: the doubling allocates, and only a flood larger than any
   before it reaches here. *)
let[@inline never] grow_prio t =
  let cap = Array.length t.prio in
  let prio = Array.make (2 * cap) 0 in
  for k = 0 to t.prio_count - 1 do
    prio.(k) <- t.prio.((t.prio_head + k) land (cap - 1))
  done;
  t.prio <- prio;
  t.prio_head <- 0

let prio_push t p =
  if t.prio_count = Array.length t.prio then grow_prio t;
  t.prio.((t.prio_head + t.prio_count) land (Array.length t.prio - 1)) <- p;
  t.prio_count <- t.prio_count + 1
[@@hot_path]

let prio_pop t =
  let p = t.prio.(t.prio_head) in
  t.prio_head <- (t.prio_head + 1) land (Array.length t.prio - 1);
  t.prio_count <- t.prio_count - 1;
  p
[@@hot_path]

(* --- Transmission --- *)

let transmit t p ~priority =
  t.in_flight <- p;
  t.in_flight_priority <- priority;
  let tx = (Packet.bits_column t.pool).(p) /. t.capacity_bps in
  Engine.schedule t.engine ~after:tx ~kind:Engine.transmission_complete
    ~a:t.lid ~b:t.epoch

let start_next t =
  if t.prio_count > 0 then transmit t (prio_pop t) ~priority:true
  else if t.count > 0 then transmit t (ring_pop t) ~priority:false
  else t.in_flight <- -1

let complete t epoch =
  if t.up && t.epoch = epoch then begin
    let p = t.in_flight in
    t.transmitted <- t.transmitted + 1;
    t.totals.bits <- t.totals.bits +. (Packet.bits_column t.pool).(p);
    (* The measured link delay: waiting + transmission, plus the
       tabled propagation the PSN adds (§2.2).  Control packets are
       not user traffic and stay out of the measurement. *)
    if not t.in_flight_priority then
      Measurement.record_packet t.measurement
        ~delay_s:
          (t.clock.Engine.now -. (Packet.enqueued_column t.pool).(p)
          +. t.link.Link.propagation_s);
    let corrupted =
      match t.rng with
      | Some rng when t.error_rate > 0. -> Rng.float rng 1. < t.error_rate
      | _ -> false
    in
    if corrupted then begin
      t.on_drop Corrupted p;
      Packet.free t.pool p
    end
    else begin
      Packet.add_hop t.pool p;
      Engine.schedule t.engine ~after:t.link.Link.propagation_s
        ~kind:Engine.arrival ~a:t.lid ~b:p
    end;
    start_next t
  end

let drop t reason p =
  t.dropped <- t.dropped + 1;
  t.on_drop reason p;
  Packet.free t.pool p

let enqueue t p =
  if not t.up then drop t Line_down p
  else if t.count >= t.buffer_packets then drop t Buffer_full p
  else begin
    (Packet.enqueued_column t.pool).(p) <- t.clock.Engine.now;
    ring_push t p;
    if t.in_flight < 0 then start_next t
  end
[@@hot_path]

let enqueue_priority t p =
  if not t.up then drop t Line_down p
  else begin
    (Packet.enqueued_column t.pool).(p) <- t.clock.Engine.now;
    prio_push t p;
    if t.in_flight < 0 then start_next t
  end
[@@hot_path]

let set_up t up =
  if t.up && not up then begin
    (* Everything queued or mid-transmission is lost with the line. *)
    t.dropped <- t.dropped + queue_length t;
    let lose p =
      t.on_drop Line_down p;
      Packet.free t.pool p
    in
    while t.count > 0 do
      lose (ring_pop t)
    done;
    while t.prio_count > 0 do
      lose (prio_pop t)
    done;
    if t.in_flight >= 0 then begin
      let p = t.in_flight in
      t.in_flight <- -1;
      lose p
    end;
    t.epoch <- t.epoch + 1
  end;
  t.up <- up

let transmitted_packets t = t.transmitted

let transmitted_bits t = t.totals.bits

let dropped_packets t = t.dropped
