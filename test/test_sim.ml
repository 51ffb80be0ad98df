(* Tests for the discrete-event packet simulator (routing_sim). *)

open Routing_topology
module Event_queue = Routing_sim.Event_queue
module Engine = Routing_sim.Engine
module Packet = Routing_sim.Packet
module Link_queue = Routing_sim.Link_queue
module Workload = Routing_sim.Workload
module Measure = Routing_sim.Measure
module Network = Routing_sim.Network
module Metric = Routing_metric.Metric
module Rng = Routing_stats.Rng

(* --- Event queue / engine --- *)

let test_event_queue_time_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.add q ~time:3. (fun () -> log := 3 :: !log);
  Event_queue.add q ~time:1. (fun () -> log := 1 :: !log);
  Event_queue.add q ~time:2. (fun () -> log := 2 :: !log);
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, run) ->
      run ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Event_queue.add q ~time:7. (fun () -> log := i :: !log)
  done;
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, run) ->
      run ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order among ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_clock () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~after:5. (fun () -> seen := Engine.now e :: !seen);
  Engine.schedule e ~after:2. (fun () ->
      seen := Engine.now e :: !seen;
      Engine.schedule e ~after:1. (fun () -> seen := Engine.now e :: !seen));
  Engine.run_until e 10.;
  Alcotest.(check (list (float 1e-9))) "clock at each event" [ 2.; 3.; 5. ]
    (List.rev !seen);
  Alcotest.(check (float 1e-9)) "clock ends at horizon" 10. (Engine.now e);
  Alcotest.(check int) "events processed" 3 (Engine.events_processed e)

let test_engine_horizon_stops_events () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~after:5. (fun () -> fired := true);
  Engine.run_until e 4.;
  Alcotest.(check bool) "not yet" false !fired;
  Engine.run_until e 6.;
  Alcotest.(check bool) "fired in second leg" true !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.run_until e 5.;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e ~at:1. ignore)

(* --- Link queue --- *)

let one_link () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.01 "A" "B" in
  let g = Builder.build b in
  (g, Graph.link g (Link.id_of_int 0))

let test_link_queue_transmits_in_order () =
  let _, link = one_link () in
  let e = Engine.create () in
  let arrived = ref [] in
  let measured = ref [] in
  let q =
    Link_queue.create e link
      ~on_arrival:(fun p -> arrived := p.Packet.bits :: !arrived)
      ~on_measured:(fun ~delay_s -> measured := delay_s :: !measured)
      ~on_drop:(fun _ _ -> Alcotest.fail "no drop expected")
  in
  let p bits = Packet.make ~src:link.Link.src ~dst:link.Link.dst ~bits 0. in
  Link_queue.enqueue q (p 560.);
  Link_queue.enqueue q (p 1120.);
  Engine.run_until e 10.;
  Alcotest.(check (list (float 1e-9))) "FIFO order" [ 560.; 1120. ]
    (List.rev !arrived);
  (* First packet: 10ms transmission + 10ms propagation; second waits 10ms
     then 20ms transmission + propagation. *)
  Alcotest.(check (list (float 1e-6))) "measured delays" [ 0.02; 0.04 ]
    (List.rev !measured);
  Alcotest.(check int) "transmitted" 2 (Link_queue.transmitted_packets q);
  Alcotest.(check (float 1e-9)) "bits" 1680. (Link_queue.transmitted_bits q)

let test_link_queue_drops_when_full () =
  let _, link = one_link () in
  let e = Engine.create () in
  let drops = ref 0 in
  let q =
    Link_queue.create ~buffer_packets:2 e link
      ~on_arrival:(fun _ -> ())
      ~on_measured:(fun ~delay_s:_ -> ())
      ~on_drop:(fun _ _ -> incr drops)
  in
  let p () = Packet.make ~src:link.Link.src ~dst:link.Link.dst ~bits:560. 0. in
  (* One in transmission + 2 waiting fit; the 4th and 5th are dropped. *)
  for _ = 1 to 5 do
    Link_queue.enqueue q (p ())
  done;
  Alcotest.(check int) "two dropped" 2 !drops;
  Alcotest.(check int) "queue holds three" 3 (Link_queue.queue_length q);
  Engine.run_until e 1.;
  Alcotest.(check int) "rest transmitted" 3 (Link_queue.transmitted_packets q)

let test_link_queue_down_drops_everything () =
  let _, link = one_link () in
  let e = Engine.create () in
  let drops = ref 0 and arrived = ref 0 in
  let q =
    Link_queue.create e link
      ~on_arrival:(fun _ -> incr arrived)
      ~on_measured:(fun ~delay_s:_ -> ())
      ~on_drop:(fun _ _ -> incr drops)
  in
  let p () = Packet.make ~src:link.Link.src ~dst:link.Link.dst ~bits:560. 0. in
  Link_queue.enqueue q (p ());
  Link_queue.enqueue q (p ());
  Link_queue.set_up q false;
  Alcotest.(check int) "both lost with the line" 2 !drops;
  Link_queue.enqueue q (p ());
  Alcotest.(check int) "enqueue while down drops" 3 !drops;
  Engine.run_until e 1.;
  Alcotest.(check int) "nothing arrives" 0 !arrived;
  Link_queue.set_up q true;
  Link_queue.enqueue q (p ());
  Engine.run_until e 2.;
  Alcotest.(check int) "works after revival" 1 !arrived

let test_link_queue_priority_lane () =
  let _, link = one_link () in
  let e = Engine.create () in
  let arrived = ref [] in
  let q =
    Link_queue.create e link
      ~on_arrival:(fun p -> arrived := p.Packet.bits :: !arrived)
      ~on_measured:(fun ~delay_s:_ -> ())
      ~on_drop:(fun _ _ -> Alcotest.fail "no drop expected")
  in
  let data bits = Packet.make ~src:link.Link.src ~dst:link.Link.dst ~bits 0. in
  let control bits =
    Packet.make ~kind:(Packet.Control 0) ~src:link.Link.src ~dst:link.Link.dst
      ~bits 0.
  in
  (* Three data packets queue up; a control packet enqueued afterwards must
     jump everything still waiting (but not the one on the wire). *)
  Link_queue.enqueue q (data 560.);
  Link_queue.enqueue q (data 561.);
  Link_queue.enqueue q (data 562.);
  Link_queue.enqueue_priority q (control 48.);
  Engine.run_until e 10.;
  Alcotest.(check (list (float 1e-9))) "control jumps the waiting data"
    [ 560.; 48.; 561.; 562. ]
    (List.rev !arrived)

let test_link_queue_priority_not_dropped () =
  let _, link = one_link () in
  let e = Engine.create () in
  let drops = ref 0 in
  let q =
    Link_queue.create ~buffer_packets:1 e link
      ~on_arrival:(fun _ -> ())
      ~on_measured:(fun ~delay_s:_ -> ())
      ~on_drop:(fun _ _ -> incr drops)
  in
  let data () = Packet.make ~src:link.Link.src ~dst:link.Link.dst ~bits:560. 0. in
  let control () =
    Packet.make ~kind:(Packet.Control 0) ~src:link.Link.src ~dst:link.Link.dst
      ~bits:48. 0.
  in
  Link_queue.enqueue q (data ());
  Link_queue.enqueue q (data ());
  Link_queue.enqueue q (data ());
  Alcotest.(check int) "data overflow dropped" 1 !drops;
  for _ = 1 to 5 do
    Link_queue.enqueue_priority q (control ())
  done;
  Alcotest.(check int) "control never dropped for buffers" 1 !drops;
  Engine.run_until e 10.

(* --- Workload --- *)

let test_workload_poisson_rate () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let g = Builder.build b in
  let tm = Traffic_matrix.create ~nodes:(Graph.node_count g) in
  Traffic_matrix.set tm ~src:(Node.of_int 0) ~dst:(Node.of_int 1) 6000.;
  let e = Engine.create () in
  let count = ref 0 in
  let w =
    Workload.create ~size:(Workload.Fixed 600.) (Rng.create 3) e tm
      ~inject:(fun _ -> incr count)
  in
  Workload.start w;
  Engine.run_until e 100.;
  Workload.stop w;
  (* 6000 bps / 600 bit packets = 10 pkt/s: expect ~1000 +- noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "rate ~10pps (got %d in 100s)" !count)
    true
    (!count > 850 && !count < 1150)

let test_workload_scale () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let g = Builder.build b in
  let tm = Traffic_matrix.create ~nodes:(Graph.node_count g) in
  Traffic_matrix.set tm ~src:(Node.of_int 0) ~dst:(Node.of_int 1) 6000.;
  let e = Engine.create () in
  let count = ref 0 in
  let w =
    Workload.create ~size:(Workload.Fixed 600.) (Rng.create 3) e tm
      ~inject:(fun _ -> incr count)
  in
  Workload.start w;
  Workload.set_scale w 3.;
  Engine.run_until e 100.;
  Alcotest.(check bool)
    (Printf.sprintf "scaled rate ~30pps (got %d in 100s)" !count)
    true
    (!count > 2600 && !count < 3400)

(* --- Measure --- *)

let test_measure_indicators () =
  let m = Measure.create ~nodes:10 in
  Measure.record_delivery m ~delay_s:0.1 ~bits:600. ~hops:3 ~min_hops:2;
  Measure.record_delivery m ~delay_s:0.3 ~bits:600. ~hops:5 ~min_hops:4;
  Measure.record_drop m;
  Measure.record_updates m ~count:4 ~bits:4000.;
  let i = Measure.indicators m ~elapsed_s:10. in
  Alcotest.(check (float 1e-6)) "traffic" 120. i.Measure.internode_traffic_bps;
  Alcotest.(check (float 1e-6)) "rtt ms" 400. i.Measure.round_trip_delay_ms;
  Alcotest.(check (float 1e-6)) "updates/s" 0.4 i.Measure.updates_per_s;
  Alcotest.(check (float 1e-6)) "update period per node" 25.
    i.Measure.update_period_per_node_s;
  Alcotest.(check (float 1e-6)) "actual hops" 4. i.Measure.actual_path_hops;
  Alcotest.(check (float 1e-6)) "path ratio" (4. /. 3.) i.Measure.path_ratio;
  Alcotest.(check (float 1e-6)) "drops/s" 0.1 i.Measure.dropped_per_s;
  Alcotest.(check (float 1e-6)) "overhead" 400. i.Measure.overhead_bps

let test_measure_percentiles () =
  let m = Measure.create ~nodes:4 in
  for i = 1 to 1000 do
    Measure.record_delivery m
      ~delay_s:(float_of_int i /. 1000.)
      ~bits:600. ~hops:1 ~min_hops:1
  done;
  Alcotest.(check bool) "median ~500ms" true
    (Float.abs (Measure.median_delay_ms m -. 500.) < 25.);
  Alcotest.(check bool) "p95 ~950ms" true
    (Float.abs (Measure.p95_delay_ms m -. 950.) < 25.)

let test_measure_comparison_table () =
  let m = Measure.create ~nodes:2 in
  Measure.record_delivery m ~delay_s:0.1 ~bits:600. ~hops:1 ~min_hops:1;
  let i = Measure.indicators m ~elapsed_s:1. in
  let t = Measure.comparison_table [ ("before", i); ("after", i) ] in
  Alcotest.(check bool) "renders" true
    (String.length (Routing_stats.Table.to_string t) > 100)

(* --- Packet network end-to-end --- *)

let small_net kind =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "B" "C" in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "C" in
  let g = Builder.build b in
  let tm = Traffic_matrix.uniform ~nodes:3 ~pair_bps:4000. in
  let config = { (Network.default_config kind) with Network.seed = 11 } in
  (g, Network.create ~config g tm)

let test_network_delivers () =
  let _, net = small_net Metric.Hn_spf in
  Network.run net ~duration_s:60.;
  Alcotest.(check bool) "packets delivered" true (Network.delivered_packets net > 1000);
  Alcotest.(check bool) "nothing dropped at light load" true
    (Network.dropped_packets net < Network.delivered_packets net / 100);
  let i = Network.indicators net in
  (* One 56k hop: ~13ms each way; rtt well under 100ms at 7% load. *)
  Alcotest.(check bool)
    (Printf.sprintf "sane rtt (%.1f ms)" i.Measure.round_trip_delay_ms)
    true
    (i.Measure.round_trip_delay_ms > 10. && i.Measure.round_trip_delay_ms < 100.);
  Alcotest.(check bool) "path ~1 hop" true
    (i.Measure.actual_path_hops >= 1. && i.Measure.actual_path_hops < 1.3)

let test_network_minhop_never_updates () =
  let _, net = small_net Metric.Min_hop in
  Network.run net ~duration_s:120.;
  let i = Network.indicators net in
  Alcotest.(check (float 0.)) "static routing floods nothing" 0.
    i.Measure.updates_per_s

let test_network_fifty_second_floods () =
  let _, net = small_net Metric.Hn_spf in
  Network.run net ~duration_s:200.;
  let i = Network.indicators net in
  (* Light steady load: cost changes are insignificant, but each node must
     still flood at least every 50 s (§2.2). *)
  Alcotest.(check bool)
    (Printf.sprintf "reliability floods (%.1f s/node)" i.Measure.update_period_per_node_s)
    true
    (i.Measure.update_period_per_node_s <= 50.5);
  Alcotest.(check bool) "overhead accounted" true (i.Measure.overhead_bps > 0.)

let test_network_link_failure_reroutes () =
  let g, net = small_net Metric.Hn_spf in
  Network.run net ~duration_s:30.;
  let a = Option.get (Graph.node_by_name g "A") in
  let c = Option.get (Graph.node_by_name g "C") in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:c) in
  Network.set_link_up net direct.Link.id false;
  Network.set_link_up net (Graph.reverse g direct).Link.id false;
  Network.reset_measurements net;
  Network.run net ~duration_s:60.;
  let i = Network.indicators net in
  (* A<->C now rides through B: mean path length rises above 1. *)
  Alcotest.(check bool)
    (Printf.sprintf "detour visible (%.2f hops)" i.Measure.actual_path_hops)
    true
    (i.Measure.actual_path_hops > 1.2);
  Alcotest.(check bool) "still delivering" true
    (i.Measure.internode_traffic_bps > 10_000.)

let test_network_series_recorded () =
  let g, net = small_net Metric.Hn_spf in
  Network.run net ~duration_s:45.;
  let lid = (Graph.link g (Link.id_of_int 0)).Link.id in
  let cost = Network.cost_series net lid in
  let util = Network.utilization_series net lid in
  Alcotest.(check int) "4 periods recorded" 4 (Routing_stats.Time_series.length cost);
  Alcotest.(check int) "util too" 4 (Routing_stats.Time_series.length util);
  Routing_stats.Time_series.iter util (fun ~time:_ ~value ->
      Alcotest.(check bool) "utilization sane" true (value >= 0. && value <= 1.01))

let test_network_hop_by_hop_flooding () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let config =
    { (Network.default_config Metric.Hn_spf) with
      Network.seed = 4;
      instant_flooding = false }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:120.;
  let lat = Network.flood_latency_stats net in
  Alcotest.(check bool) "floods happened" true
    (Routing_stats.Welford.count lat > 100);
  (* §3.2's synchrony assumption: "network packet transit times are
     typically much less than a second", so floods finish well inside the
     10-second period.  Satellite hops (250 ms) and 9.6 kb/s tails put the
     worst case in the low seconds. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean flood latency well under 1 s (%.0f ms)"
       (1000. *. Routing_stats.Welford.mean lat))
    true
    (Routing_stats.Welford.mean lat < 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "worst case far inside the period (%.0f ms)"
       (1000. *. Routing_stats.Welford.max_value lat))
    true
    (Routing_stats.Welford.max_value lat < 0.3 *. 10.);
  (* The network still works with per-node views and staggered tables. *)
  Alcotest.(check bool) "still delivering" true
    (Network.delivered_packets net > 10_000);
  Alcotest.(check bool) "losses stay modest" true
    (float_of_int (Network.dropped_packets net)
    < 0.1 *. float_of_int (Network.generated_packets net))

let test_network_reliable_flooding_on_lossy_lines () =
  (* 10% of every transmission is corrupted.  Data packets just die;
     control packets are retransmitted until acknowledged, so routing
     still converges and every node keeps a current view. *)
  let g = Generators.ring 6 in
  let tm = Traffic_matrix.uniform ~nodes:6 ~pair_bps:3000. in
  let config =
    { (Network.default_config Metric.Hn_spf) with
      Network.seed = 9;
      instant_flooding = false;
      line_error_rate = 0.10;
      record_series = false }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:300.;
  let lat = Network.flood_latency_stats net in
  Alcotest.(check bool) "floods still complete" true
    (Routing_stats.Welford.count lat > 50);
  (* Retransmission pushes the tail out but floods still finish far
     inside the period. *)
  Alcotest.(check bool)
    (Printf.sprintf "latency bounded (max %.2f s)"
       (Routing_stats.Welford.max_value lat))
    true
    (Routing_stats.Welford.max_value lat < 9.);
  (* ~10% of data is lost per hop: delivery reflects the error rate, not
     a routing failure. *)
  let delivered = float_of_int (Network.delivered_packets net) in
  let generated = float_of_int (Network.generated_packets net) in
  Alcotest.(check bool)
    (Printf.sprintf "delivery ~ (1-e)^hops (%.2f)" (delivered /. generated))
    true
    (delivered /. generated > 0.75 && delivered /. generated < 0.95)

(* Pins the hop-by-hop DES: D-SPF on the ARPANET, where every node routes
   on its own cost view and repairs its own tree on receipt, with one
   cross-country trunk down at 40 s and back up at 80 s.  A node
   installing a different table on some receipt would show up in these
   counts. *)
let test_network_hop_by_hop_golden () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let config =
    { (Network.default_config Metric.D_spf) with
      Network.seed = 5;
      instant_flooding = false;
      record_series = false }
  in
  let net = Network.create ~config g tm in
  let node name = Option.get (Graph.node_by_name g name) in
  let trunk =
    Option.get (Graph.find_link g ~src:(node "CMU") ~dst:(node "UTAH"))
  in
  let set_trunk up =
    Network.set_link_up net trunk.Link.id up;
    Network.set_link_up net (Graph.reverse g trunk).Link.id up
  in
  Network.run net ~duration_s:40.;
  set_trunk false;
  Network.run net ~duration_s:40.;
  set_trunk true;
  Network.run net ~duration_s:40.;
  Alcotest.(check (list int))
    "generated, delivered, dropped, fresh receipts"
    [ 75610; 47645; 27451; 21168 ]
    [ Network.generated_packets net;
      Network.delivered_packets net;
      Network.dropped_packets net;
      Routing_stats.Welford.count (Network.flood_latency_stats net) ]

(* --- Trace --- *)

module Trace = Routing_sim.Trace

let test_trace_ring_rotation () =
  let tr = Trace.create ~capacity:3 in
  for i = 1 to 5 do
    Trace.record tr ~time:(float_of_int i)
      (Trace.Tables_recomputed { at = Node.of_int i })
  done;
  Alcotest.(check int) "capacity bound" 3 (Trace.length tr);
  Alcotest.(check int) "total recorded" 5 (Trace.total_recorded tr);
  let times = List.map fst (Trace.events tr) in
  Alcotest.(check (list (float 1e-9))) "most recent, oldest first" [ 3.; 4.; 5. ]
    times

let test_network_trace_captures_events () =
  let g, net =
    let b = Builder.create () in
    let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "B" in
    let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "B" "C" in
    let g = Builder.build b in
    let tm = Traffic_matrix.uniform ~nodes:3 ~pair_bps:4000. in
    let config =
      { (Network.default_config Metric.Hn_spf) with
        Network.seed = 11;
        trace_capacity = 10_000 }
    in
    (g, Network.create ~config g tm)
  in
  Network.run net ~duration_s:60.;
  let events = Network.trace_events net in
  Alcotest.(check bool) "events recorded" true (List.length events > 100);
  let deliveries =
    List.filter
      (fun (_, e) -> match e with Trace.Packet_delivered _ -> true | _ -> false)
      events
  in
  Alcotest.(check bool) "deliveries traced" true (List.length deliveries > 50);
  (* Times are nondecreasing. *)
  let rec ordered = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (ordered events);
  (* Link flap appears in the trace. *)
  let l = (Graph.link g (Link.id_of_int 0)).Link.id in
  Network.set_link_up net l false;
  Alcotest.(check bool) "link-down traced" true
    (List.exists
       (fun (_, e) ->
         match e with Trace.Link_state { up = false; _ } -> true | _ -> false)
       (Network.trace_events net));
  Alcotest.(check bool) "dump renders" true
    (String.length (Network.dump_trace net) > 1000)

let test_network_incremental_survives_link_flap () =
  let g = Generators.ring 6 in
  let tm = Traffic_matrix.uniform ~nodes:6 ~pair_bps:2000. in
  let config =
    { (Network.default_config Metric.Hn_spf) with
      Network.seed = 13;
      instant_flooding = false;
      record_series = false }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:60.;
  let l = (Graph.link g (Link.id_of_int 0)).Link.id in
  (* Up/down rebuilds every node's tree from scratch; receipts in between
     repair them in place. *)
  Network.set_link_up net l false;
  Network.run net ~duration_s:60.;
  Network.set_link_up net l true;
  Network.run net ~duration_s:120.;
  Alcotest.(check bool) "still delivering after flap cycle" true
    (Network.delivered_packets net > 2000);
  Alcotest.(check bool) "loss stays low" true
    (float_of_int (Network.dropped_packets net)
    < 0.05 *. float_of_int (Network.generated_packets net))

let test_network_deterministic () =
  let run () =
    let _, net = small_net Metric.D_spf in
    Network.run net ~duration_s:50.;
    (Network.delivered_packets net, Network.dropped_packets net)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "same seed, same run" a b

let () =
  Alcotest.run "routing_sim"
    [ ( "event_queue",
        [ Alcotest.test_case "time order" `Quick test_event_queue_time_order;
          Alcotest.test_case "fifo ties" `Quick test_event_queue_fifo_ties ] );
      ( "engine",
        [ Alcotest.test_case "clock" `Quick test_engine_clock;
          Alcotest.test_case "horizon" `Quick test_engine_horizon_stops_events;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past ] );
      ( "link_queue",
        [ Alcotest.test_case "fifo transmission" `Quick
            test_link_queue_transmits_in_order;
          Alcotest.test_case "drops when full" `Quick test_link_queue_drops_when_full;
          Alcotest.test_case "line down" `Quick test_link_queue_down_drops_everything;
          Alcotest.test_case "priority lane" `Quick test_link_queue_priority_lane;
          Alcotest.test_case "priority never dropped" `Quick
            test_link_queue_priority_not_dropped ] );
      ( "workload",
        [ Alcotest.test_case "poisson rate" `Quick test_workload_poisson_rate;
          Alcotest.test_case "scale" `Quick test_workload_scale ] );
      ( "measure",
        [ Alcotest.test_case "indicators" `Quick test_measure_indicators;
          Alcotest.test_case "percentiles" `Quick test_measure_percentiles;
          Alcotest.test_case "comparison table" `Quick test_measure_comparison_table
        ] );
      ( "network",
        [ Alcotest.test_case "delivers" `Quick test_network_delivers;
          Alcotest.test_case "min-hop static" `Quick test_network_minhop_never_updates;
          Alcotest.test_case "50s reliability floods" `Quick
            test_network_fifty_second_floods;
          Alcotest.test_case "link failure" `Quick test_network_link_failure_reroutes;
          Alcotest.test_case "series" `Quick test_network_series_recorded;
          Alcotest.test_case "hop-by-hop flooding" `Slow
            test_network_hop_by_hop_flooding;
          Alcotest.test_case "reliable flooding on lossy lines" `Slow
            test_network_reliable_flooding_on_lossy_lines;
          Alcotest.test_case "hop-by-hop golden" `Quick
            test_network_hop_by_hop_golden;
          Alcotest.test_case "incremental + link flap" `Quick
            test_network_incremental_survives_link_flap;
          Alcotest.test_case "trace ring" `Quick test_trace_ring_rotation;
          Alcotest.test_case "trace captures events" `Quick
            test_network_trace_captures_events;
          Alcotest.test_case "deterministic" `Quick test_network_deterministic ] )
    ]
