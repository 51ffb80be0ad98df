(* Integration tests: the packet simulator, the flow simulator and the
   analytic layer must agree with each other and with the paper's headline
   claims when run on the same inputs. *)

open Routing_topology
module Network = Routing_sim.Network
module Flow_sim = Routing_sim.Flow_sim
module Measure = Routing_sim.Measure
module Workload = Routing_sim.Workload
module Metric = Routing_metric.Metric
module Queueing = Routing_metric.Queueing
module Rng = Routing_stats.Rng

(* --- Packet DES vs flow simulator on the same scenario --- *)

(* A 5-node ring at moderate uniform load, HN-SPF.  The packet simulator
   measures real queueing; the flow simulator predicts it analytically.
   Their delay and throughput must agree to simulation noise. *)
let test_des_and_flow_sim_agree () =
  let g = Generators.ring 5 in
  let tm = Traffic_matrix.uniform ~nodes:5 ~pair_bps:2500. in
  (* Flow sim. *)
  let fsim = Flow_sim.create g Metric.Hn_spf tm in
  ignore (Flow_sim.run fsim ~periods:30);
  let fi = Flow_sim.indicators fsim ~skip:5 () in
  (* Packet DES. *)
  let config = { (Network.default_config Metric.Hn_spf) with Network.seed = 5 } in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:300.;
  let ni = Network.indicators net in
  let rel a b = Float.abs (a -. b) /. Float.max a b in
  Alcotest.(check bool)
    (Printf.sprintf "throughput within 10%% (%.0f vs %.0f bps)"
       fi.Measure.internode_traffic_bps ni.Measure.internode_traffic_bps)
    true
    (rel fi.Measure.internode_traffic_bps ni.Measure.internode_traffic_bps < 0.10);
  Alcotest.(check bool)
    (Printf.sprintf "delay within 35%% (%.1f vs %.1f ms)"
       fi.Measure.round_trip_delay_ms ni.Measure.round_trip_delay_ms)
    true
    (rel fi.Measure.round_trip_delay_ms ni.Measure.round_trip_delay_ms < 0.35);
  Alcotest.(check bool)
    (Printf.sprintf "path lengths agree (%.2f vs %.2f hops)"
       fi.Measure.actual_path_hops ni.Measure.actual_path_hops)
    true
    (rel fi.Measure.actual_path_hops ni.Measure.actual_path_hops < 0.05)

(* The DES's per-link delay measurement should track the M/M/1 prediction
   at a held utilization — validating the model the HNM inverts. *)
let test_des_delay_matches_mm1 () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "B" in
  let g = Builder.build b in
  let rho = 0.6 in
  let tm = Traffic_matrix.create ~nodes:2 in
  Traffic_matrix.set tm ~src:(Node.of_int 0) ~dst:(Node.of_int 1)
    (rho *. 56_000.);
  let config = { (Network.default_config Metric.Hn_spf) with Network.seed = 3 } in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:600.;
  let i = Network.indicators net in
  let link = Graph.link g (Link.id_of_int 0) in
  let predicted = Queueing.mm1k_delay_s link ~utilization:rho *. 2. *. 1000. in
  let measured = i.Measure.round_trip_delay_ms in
  Alcotest.(check bool)
    (Printf.sprintf "M/M/1 holds (measured %.1f vs predicted %.1f ms)" measured
       predicted)
    true
    (Float.abs (measured -. predicted) /. predicted < 0.15)

(* --- The headline result (Table 1 direction) --- *)

let test_table1_directions () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let run kind scale =
    let sim = Flow_sim.create g kind (Traffic_matrix.scale tm scale) in
    ignore (Flow_sim.run sim ~periods:120);
    Flow_sim.indicators sim ~skip:20 ()
  in
  (* May 87: D-SPF at 1.0x; Aug 87: HN-SPF at 1.13x (the paper's +13%). *)
  let d = run Metric.D_spf 1.0 in
  let h = run Metric.Hn_spf 1.13 in
  Alcotest.(check bool)
    (Printf.sprintf "delay falls despite more traffic (%.0f -> %.0f ms)"
       d.Measure.round_trip_delay_ms h.Measure.round_trip_delay_ms)
    true
    (h.Measure.round_trip_delay_ms < 0.75 *. d.Measure.round_trip_delay_ms);
  Alcotest.(check bool) "throughput up" true
    (h.Measure.internode_traffic_bps > d.Measure.internode_traffic_bps);
  Alcotest.(check bool)
    (Printf.sprintf "fewer updates (%.2f -> %.2f /s)" d.Measure.updates_per_s
       h.Measure.updates_per_s)
    true
    (h.Measure.updates_per_s < d.Measure.updates_per_s);
  Alcotest.(check bool)
    (Printf.sprintf "path ratio improves (%.2f -> %.2f)" d.Measure.path_ratio
       h.Measure.path_ratio)
    true
    (h.Measure.path_ratio < d.Measure.path_ratio);
  Alcotest.(check bool)
    (Printf.sprintf "drops collapse (%.1f -> %.1f /s)" d.Measure.dropped_per_s
       h.Measure.dropped_per_s)
    true
    (h.Measure.dropped_per_s < 0.5 *. d.Measure.dropped_per_s)

(* --- Routing remains loop-free through update churn in the DES --- *)

let test_des_no_forwarding_pathologies () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let config = { (Network.default_config Metric.Hn_spf) with Network.seed = 1 } in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:120.;
  (* Conservation: everything generated is delivered, dropped, or still in
     flight (bounded by total buffering). *)
  let generated = Network.generated_packets net in
  let delivered = Network.delivered_packets net in
  let dropped = Network.dropped_packets net in
  let in_flight = generated - delivered - dropped in
  Alcotest.(check bool)
    (Printf.sprintf "conservation (gen %d = del %d + drop %d + fly %d)" generated
       delivered dropped in_flight)
    true
    (in_flight >= 0
    && in_flight <= Graph.link_count g * (Queueing.buffer_capacity + 1));
  (* With consistent tables, TTL drops would indicate loops: the drop rate
     must stay small at this load under HN-SPF. *)
  Alcotest.(check bool)
    (Printf.sprintf "low loss under HN-SPF (%d/%d)" dropped generated)
    true
    (float_of_int dropped < 0.05 *. float_of_int generated)

(* --- Metric switch mid-flight in the DES (the HNM install) --- *)

let test_des_vs_flow_after_install () =
  let g, (a, b) = Generators.two_region () in
  let tm = Generators.two_region_traffic g in
  (* DES under D-SPF: the bridges should visibly oscillate. *)
  let config = { (Network.default_config Metric.D_spf) with Network.seed = 2 } in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:300.;
  let series = Network.utilization_series net a in
  let swings = ref 0 in
  let prev = ref None in
  Routing_stats.Time_series.iter series (fun ~time:_ ~value ->
      (match !prev with
      | Some p when Float.abs (value -. p) > 0.5 -> incr swings
      | _ -> ());
      prev := Some value);
  Alcotest.(check bool)
    (Printf.sprintf "packet-level D-SPF oscillates too (%d swings)" !swings)
    true (!swings >= 5);
  ignore b

let () =
  Alcotest.run "integration"
    [ ( "cross-validation",
        [ Alcotest.test_case "DES vs flow sim" `Slow test_des_and_flow_sim_agree;
          Alcotest.test_case "DES vs M/M/1" `Slow test_des_delay_matches_mm1 ] );
      ( "headline",
        [ Alcotest.test_case "table 1 directions" `Slow test_table1_directions ] );
      ( "robustness",
        [ Alcotest.test_case "conservation + low loss" `Slow
            test_des_no_forwarding_pathologies;
          Alcotest.test_case "packet-level oscillation" `Slow
            test_des_vs_flow_after_install ] ) ]
