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

let fields =
  [ ("elapsed_s", fun i -> i.elapsed_s);
    ("internode_traffic_bps", fun i -> i.internode_traffic_bps);
    ("round_trip_delay_ms", fun i -> i.round_trip_delay_ms);
    ("updates_per_s", fun i -> i.updates_per_s);
    ("update_period_per_node_s", fun i -> i.update_period_per_node_s);
    ("actual_path_hops", fun i -> i.actual_path_hops);
    ("minimum_path_hops", fun i -> i.minimum_path_hops);
    ("path_ratio", fun i -> i.path_ratio);
    ("dropped_per_s", fun i -> i.dropped_per_s);
    ("overhead_bps", fun i -> i.overhead_bps);
    ("delay_p50_ms", fun i -> i.delay_p50_ms);
    ("delay_p95_ms", fun i -> i.delay_p95_ms);
    ("delay_p99_ms", fun i -> i.delay_p99_ms);
    ("route_changes_per_period", fun i -> i.route_changes_per_period);
    ("next_hop_flips_per_period", fun i -> i.next_hop_flips_per_period);
    ("link_flips_per_period", fun i -> i.link_flips_per_period) ]

(* [of_values v] inverts [fields]: [v.(k)] is the [k]th field's value. *)
let of_values v =
  { elapsed_s = v.(0);
    internode_traffic_bps = v.(1);
    round_trip_delay_ms = v.(2);
    updates_per_s = v.(3);
    update_period_per_node_s = v.(4);
    actual_path_hops = v.(5);
    minimum_path_hops = v.(6);
    path_ratio = v.(7);
    dropped_per_s = v.(8);
    overhead_bps = v.(9);
    delay_p50_ms = v.(10);
    delay_p95_ms = v.(11);
    delay_p99_ms = v.(12);
    route_changes_per_period = v.(13);
    next_hop_flips_per_period = v.(14);
    link_flips_per_period = v.(15) }

let to_json i =
  Obs_json.Obj
    (List.map (fun (name, get) -> (name, Obs_json.Float (get i))) fields)

let of_json j =
  let values = Array.make (List.length fields) Float.nan in
  let rec decode k = function
    | [] -> Ok (of_values values)
    | (name, _) :: rest ->
      let value =
        match Obs_json.member name j with
        | Error _ -> Error (Printf.sprintf "missing indicator %S" name)
        | Ok Obs_json.Null -> Ok Float.nan (* the printer maps NaN to null *)
        | Ok v ->
          Result.map_error
            (fun _ -> Printf.sprintf "indicator %S is not a number" name)
            (Obs_json.to_float v)
      in
      Result.bind value (fun f ->
          values.(k) <- f;
          decode (k + 1) rest)
  in
  decode 0 fields

(* Built once: a report exports every point's indicators. *)
let gauge_names = List.map (fun (name, _) -> "indicator_" ^ name) fields

let export ?(labels = []) registry i =
  List.iter2
    (fun gauge (_, get) ->
      Obs_metrics.set (Obs_metrics.gauge registry ~labels gauge) (get i))
    gauge_names fields

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

let median_delay_ms t = 1000. *. Quantile.value t.delay_p50

let p95_delay_ms t = 1000. *. Quantile.value t.delay_p95

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
