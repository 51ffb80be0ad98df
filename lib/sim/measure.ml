open! Import
module Table = Routing_stats.Table

type indicators = {
  elapsed_s : float;
  internode_traffic_bps : float;
  round_trip_delay_ms : float;
  updates_per_s : float;
  update_period_per_node_s : float;
  actual_path_hops : float;
  minimum_path_hops : float;
  path_ratio : float;
  dropped_per_s : float;
  overhead_bps : float;
  delay_p50_ms : float;
  delay_p95_ms : float;
  delay_p99_ms : float;
  route_changes_per_period : float;
  next_hop_flips_per_period : float;
  link_flips_per_period : float;
}

let pp_indicators ppf i =
  Format.fprintf ppf
    "@[<v>traffic %.1f kb/s, rtt %.1f ms, %.2f upd/s (period/node %.1f s),@ \
     path %.2f vs min %.2f (ratio %.2f), drops %.2f/s, overhead %.1f b/s@]"
    (i.internode_traffic_bps /. 1000.)
    i.round_trip_delay_ms i.updates_per_s i.update_period_per_node_s
    i.actual_path_hops i.minimum_path_hops i.path_ratio i.dropped_per_s
    i.overhead_bps

let export ?(labels = []) registry i =
  let g name v = Obs_metrics.set (Obs_metrics.gauge registry ~labels name) v in
  g "indicator_elapsed_s" i.elapsed_s;
  g "indicator_internode_traffic_bps" i.internode_traffic_bps;
  g "indicator_round_trip_delay_ms" i.round_trip_delay_ms;
  g "indicator_updates_per_s" i.updates_per_s;
  g "indicator_update_period_per_node_s" i.update_period_per_node_s;
  g "indicator_actual_path_hops" i.actual_path_hops;
  g "indicator_minimum_path_hops" i.minimum_path_hops;
  g "indicator_path_ratio" i.path_ratio;
  g "indicator_dropped_per_s" i.dropped_per_s;
  g "indicator_overhead_bps" i.overhead_bps;
  g "indicator_delay_p50_ms" i.delay_p50_ms;
  g "indicator_delay_p95_ms" i.delay_p95_ms;
  g "indicator_delay_p99_ms" i.delay_p99_ms;
  g "indicator_route_changes_per_period" i.route_changes_per_period;
  g "indicator_next_hop_flips_per_period" i.next_hop_flips_per_period;
  g "indicator_link_flips_per_period" i.link_flips_per_period

let comparison_table ?title runs =
  let columns =
    ("Indicator", Table.Left)
    :: List.map (fun (label, _) -> (label, Table.Right)) runs
  in
  let table = Table.create ?title columns in
  let row label ?(decimals = 2) value =
    ignore
      (Table.add_float_row table ~decimals label
         (List.map (fun (_, i) -> value i) runs))
  in
  row "Internode Traffic (kb/s)" (fun i -> i.internode_traffic_bps /. 1000.);
  row "Round Trip Delay (ms)" (fun i -> i.round_trip_delay_ms);
  row "Rtng. Updates per Net/s" (fun i -> i.updates_per_s);
  row "Update Period per Node (s)" (fun i -> i.update_period_per_node_s);
  row "Internode Actual Path (hops)" (fun i -> i.actual_path_hops);
  row "Internode Minimum Path (hops)" (fun i -> i.minimum_path_hops);
  row "Path Ratio (Actual/Min.)" (fun i -> i.path_ratio);
  row "Dropped Packets (/s)" (fun i -> i.dropped_per_s);
  row "Routing Overhead (b/s)" ~decimals:0 (fun i -> i.overhead_bps);
  row "One-way Delay p50 (ms)" (fun i -> i.delay_p50_ms);
  row "One-way Delay p95 (ms)" (fun i -> i.delay_p95_ms);
  row "One-way Delay p99 (ms)" (fun i -> i.delay_p99_ms);
  row "Route Changes (/period)" (fun i -> i.route_changes_per_period);
  row "Next-hop Flips (/period)" (fun i -> i.next_hop_flips_per_period);
  row "Link Dir. Flips (/period)" (fun i -> i.link_flips_per_period);
  table

module Quantile = Routing_stats.Quantile

(* Float totals in an all-float record, stored flat: adding to them
   writes unboxed floats (mutable float fields of [t] box per write). *)
type totals = { mutable delivered_bits : float; mutable update_bits : float }

type t = {
  nodes : int;
  delay : Welford.t;
  mutable delay_p50 : Quantile.t;
  mutable delay_p95 : Quantile.t;
  mutable delay_p99 : Quantile.t;
  hops : Welford.t;
  min_hops : Welford.t;
  totals : totals;
  mutable delivered : int;
  mutable dropped : int;
  mutable updates : int;
}

let create ~nodes =
  { nodes;
    delay = Welford.create ();
    delay_p50 = Quantile.create 0.5;
    delay_p95 = Quantile.create 0.95;
    delay_p99 = Quantile.create 0.99;
    hops = Welford.create ();
    min_hops = Welford.create ();
    totals = { delivered_bits = 0.; update_bits = 0. };
    delivered = 0;
    dropped = 0;
    updates = 0 }

(* The two recorders are inlined where cross-module inlining is on
   (release builds), so the packet simulator's delays and sizes reach
   the accumulators unboxed. *)
let[@inline] record_delivery t ~delay_s ~bits ~hops ~min_hops =
  Welford.add t.delay delay_s;
  Quantile.add t.delay_p50 delay_s;
  Quantile.add t.delay_p95 delay_s;
  Quantile.add t.delay_p99 delay_s;
  Welford.add t.hops (float_of_int hops);
  Welford.add t.min_hops (float_of_int min_hops);
  t.totals.delivered_bits <- t.totals.delivered_bits +. bits;
  t.delivered <- t.delivered + 1

let record_drop t = t.dropped <- t.dropped + 1

let[@inline] record_updates t ~count ~bits =
  t.updates <- t.updates + count;
  t.totals.update_bits <- t.totals.update_bits +. bits

let delivered_packets t = t.delivered

let dropped_packets t = t.dropped

let delay_stats t = t.delay

let median_delay_ms t = 1000. *. Quantile.value t.delay_p50

let p95_delay_ms t = 1000. *. Quantile.value t.delay_p95

let p99_delay_ms t = 1000. *. Quantile.value t.delay_p99

(* The P² estimators report [nan] before their first observation; the
   indicator record carries 0 instead so exports stay valid JSON. *)
let quantile_ms q =
  let v = Quantile.value q in
  if Float.is_nan v then 0. else 1000. *. v

let indicators t ~elapsed_s =
  if elapsed_s <= 0. then invalid_arg "Measure.indicators: elapsed <= 0";
  let actual = Welford.mean t.hops in
  let minimum = Welford.mean t.min_hops in
  { elapsed_s;
    internode_traffic_bps = t.totals.delivered_bits /. elapsed_s;
    round_trip_delay_ms = 2. *. Welford.mean t.delay *. 1000.;
    updates_per_s = float_of_int t.updates /. elapsed_s;
    update_period_per_node_s =
      (if t.updates = 0 then infinity
       else float_of_int t.nodes *. elapsed_s /. float_of_int t.updates);
    actual_path_hops = actual;
    minimum_path_hops = minimum;
    path_ratio = (if minimum > 0. then actual /. minimum else 1.);
    dropped_per_s = float_of_int t.dropped /. elapsed_s;
    overhead_bps = t.totals.update_bits /. elapsed_s;
    delay_p50_ms = quantile_ms t.delay_p50;
    delay_p95_ms = quantile_ms t.delay_p95;
    delay_p99_ms = quantile_ms t.delay_p99;
    route_changes_per_period = 0.;
    next_hop_flips_per_period = 0.;
    link_flips_per_period = 0. }

let reset t =
  Welford.reset t.delay;
  t.delay_p50 <- Quantile.create 0.5;
  t.delay_p95 <- Quantile.create 0.95;
  t.delay_p99 <- Quantile.create 0.99;
  Welford.reset t.hops;
  Welford.reset t.min_hops;
  t.totals.delivered_bits <- 0.;
  t.delivered <- 0;
  t.dropped <- 0;
  t.updates <- 0;
  t.totals.update_bits <- 0.
