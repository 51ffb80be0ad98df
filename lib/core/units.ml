open! Import

let unit_ms = 10.

let max_cost = 254

let hop = 30

let[@inline] clamp_cost c = max 1 (min max_cost c)

let[@inline] of_delay seconds =
  clamp_cost (int_of_float (Float.round (seconds *. 1000. /. unit_ms)))

let of_delay_into ~up ~delay_s ~units =
  let n = Array.length delay_s in
  for i = 0 to n - 1 do
    if up.(i) then units.(i) <- of_delay delay_s.(i)
  done
[@@hot_path]

let hops_of_cost c = float_of_int c /. float_of_int hop

let cost_of_hops h =
  clamp_cost (int_of_float (Float.round (h *. float_of_int hop)))

let routing_period_s = 10.

let max_update_interval_s = 50.

let average_packet_bits = 600.
