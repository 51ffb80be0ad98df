open! Import

type size = Fixed of float | Exponential of float

(* A fixed size, already clamped, in an all-float record (read only
   for [Fixed]): read unboxed, it joins the exponential draw's unboxed
   float in [draw_bits], so release builds box neither. *)
type fixed = { fixed_bits : float }

type t = {
  rng : Rng.t;
  engine : Engine.t;
  pool : Packet.pool;
  size : size;
  fixed : fixed;
  (* Flows as columns, in traffic-matrix [iter] order. *)
  srcs : int array;
  dsts : int array;
  rates_pps : float array;
  inject : int -> unit;
  mutable running : bool;
  mutable scale : float;
  mutable generated : int;
}

(* At least one header's worth of bits so service times never vanish —
   for fixed sizes too: a [Fixed 0.] flow must not inject zero-bit
   packets whose service completes instantly.  [Float.max 64.] for every
   [b], NaN included, without the call. *)
let[@inline] clamp_bits b = if b < 64. then 64. else b

(* The mean size of the packets a flow injects, which turns its demand
   into a packet rate: a fixed size as clamped, so a [Fixed 0.] flow
   still offers its demand (in 64-bit packets) at a finite rate. *)
let mean_bits = function Fixed b -> clamp_bits b | Exponential b -> b

let create ?(size = Exponential 600.) rng engine pool tm ~inject =
  let srcs, dsts, rates_pps = Traffic_matrix.flows tm in
  (* The demand column is ours: turn it into packet rates in place. *)
  let mean = mean_bits size in
  for flow = 0 to Array.length rates_pps - 1 do
    rates_pps.(flow) <- rates_pps.(flow) /. mean
  done;
  { rng;
    engine;
    pool;
    size;
    fixed = { fixed_bits = mean };
    srcs;
    dsts;
    rates_pps;
    inject;
    running = false;
    scale = 1.;
    generated = 0 }

(* The exponential mean stays in the variant: it is boxed there already,
   so the dev build's out-of-line [Rng.exponential] takes it as is. *)
let[@inline] draw_bits t =
  match t.size with
  | Fixed _ -> t.fixed.fixed_bits
  | Exponential mean -> clamp_bits (Rng.exponential t.rng ~mean)

let schedule_next t flow =
  let rate = t.rates_pps.(flow) *. t.scale in
  if rate > 0. then begin
    let gap = Rng.exponential t.rng ~mean:(1. /. rate) in
    Engine.schedule t.engine ~after:gap ~kind:Engine.generate ~a:flow ~b:0
  end

let fire t flow =
  if t.running then begin
    let packet =
      Packet.alloc t.pool ~kind:Packet.data ~src:t.srcs.(flow)
        ~dst:t.dsts.(flow) ~token:0 ~bits:(draw_bits t)
    in
    t.generated <- t.generated + 1;
    t.inject packet;
    schedule_next t flow
  end

let start t =
  if not t.running then begin
    t.running <- true;
    for flow = 0 to Array.length t.srcs - 1 do
      schedule_next t flow
    done
  end

let stop t = t.running <- false

let set_scale t factor =
  if factor < 0. then invalid_arg "Workload.set_scale: negative";
  t.scale <- factor

let generated_packets t = t.generated
