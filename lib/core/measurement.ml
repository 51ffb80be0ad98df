open! Import

(* The running sum sits in an all-float record, so folding in a packet
   stores an unboxed float (a mutable float field of [t] would box on
   every write, once per measured packet). *)
type window = { mutable sum_s : float }

type t = {
  link : Link.t;
  window : window;
  mutable packets : int;
}

let create link = { link; window = { sum_s = 0. }; packets = 0 }

let link t = t.link

let record_packet t ~delay_s =
  t.window.sum_s <- t.window.sum_s +. delay_s;
  t.packets <- t.packets + 1

let packet_count t = t.packets

let idle_delay_s t =
  Link.transmission_s t.link ~bits:Units.average_packet_bits
  +. t.link.Link.propagation_s

let peek_average t =
  if t.packets = 0 then idle_delay_s t
  else t.window.sum_s /. float_of_int t.packets

let finish_period t =
  let avg = peek_average t in
  t.window.sum_s <- 0.;
  t.packets <- 0;
  avg
