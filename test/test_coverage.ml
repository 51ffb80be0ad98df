(* Additional coverage for corners the main suites do not reach:
   serialization to disk, metric counters, trace-less defaults, parameter
   caps and generator options. *)

open Routing_topology
module Table = Routing_stats.Table
module Time_series = Routing_stats.Time_series
module Hnm_params = Routing_metric.Hnm_params
module Metric = Routing_metric.Metric
module Queueing = Routing_metric.Queueing
module Network = Routing_sim.Network
module Flow_sim = Routing_sim.Flow_sim
module Reverse_spf = Routing_multipath.Reverse_spf
module Rng = Routing_stats.Rng

(* --- Serial file I/O --- *)

let test_serial_save_load_file () =
  let g = Milnet.topology () in
  let tm = Milnet.peak_traffic (Rng.create 11) g in
  let path = Filename.temp_file "scenario" ".scn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save path g (Some tm);
      match Serial.load path with
      | Error e -> Alcotest.fail e
      | Ok (g', tm') ->
        Alcotest.(check int) "nodes" (Graph.node_count g) (Graph.node_count g');
        Alcotest.(check bool) "traffic close" true
          (Float.abs (Traffic_matrix.total_bps tm -. Traffic_matrix.total_bps tm')
          < 1.))

let test_serial_load_missing_file () =
  match Serial.load "/nonexistent/path.scn" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> Alcotest.(check bool) "message" true (String.length e > 0)

let test_serial_topology_only () =
  let g = Generators.ring 4 in
  match Serial.of_string (Serial.to_string g None) with
  | Ok (g', tm) ->
    Alcotest.(check int) "nodes" 4 (Graph.node_count g');
    Alcotest.(check (float 0.)) "no demands" 0. (Traffic_matrix.total_bps tm)
  | Error e -> Alcotest.fail e

(* --- Metric counters --- *)

let two_nodes () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "B" in
  Builder.build b

let test_metric_update_counter () =
  let g = two_nodes () in
  let m = Metric.create Metric.Hn_spf g in
  let l = Link.id_of_int 0 in
  (* Drive a big cost swing so an update floods. *)
  let hot = Queueing.delay_s (Graph.link g l) ~utilization:0.95 in
  let period () =
    Metric.period_update_all m ~up:[| true; false |]
      ~link_delay_s:[| hot; 0. |] ~changed_ids:[| 0; 0 |]
      ~changed_costs:[| 0; 0 |]
  in
  ignore (period ());
  ignore (period ());
  Alcotest.(check bool) "updates counted" true (Metric.updates_flooded m > 0);
  Metric.reset_update_counter m;
  Alcotest.(check int) "counter reset" 0 (Metric.updates_flooded m)

(* --- HNM parameter caps --- *)

let test_min_cost_capped_for_long_lines () =
  (* A pathological 10-second propagation delay must not push the floor
     past the ceiling. *)
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:10.0 "A" "B" in
  let g = Builder.build b in
  let l = Graph.link g (Link.id_of_int 0) in
  let p = Hnm_params.for_line_type Line_type.T56 in
  Alcotest.(check bool) "floor stays below ceiling" true
    (Hnm_params.min_cost l < p.Hnm_params.max_cost);
  Alcotest.(check int) "capped at 2x base" (2 * p.Hnm_params.base_min)
    (Hnm_params.min_cost l)

(* --- Table separators and decimals --- *)

let test_table_float_decimals () =
  let t = Table.create [ ("x", Table.Left); ("v", Table.Right) ] in
  ignore (Table.add_float_row t ~decimals:4 "pi" [ 3.14159 ]);
  Alcotest.(check bool) "4 decimals" true
    (Astring.String.is_infix ~affix:"3.1416" (Table.to_string t))

(* --- Time series growth --- *)

let test_time_series_growth () =
  let ts = Time_series.create ~capacity:2 "grow" in
  for i = 0 to 99 do
    Time_series.record ts ~time:(float_of_int i) (float_of_int i)
  done;
  Alcotest.(check int) "all retained across growth" 100 (Time_series.length ts);
  Alcotest.(check (float 0.)) "values intact" 73. (snd (Time_series.get ts 73))

(* --- Generator options --- *)

let test_two_region_options () =
  let g, (a, b) = Generators.two_region ~region_size:5 ~bridge_type:Line_type.S56 () in
  Alcotest.(check int) "10 nodes" 10 (Graph.node_count g);
  Alcotest.(check bool) "bridges are satellite" true
    (Line_type.is_satellite (Graph.link g a).Link.line_type
    && Line_type.is_satellite (Graph.link g b).Link.line_type)

(* --- Reverse SPF with disabled links --- *)

let test_reverse_spf_enabled () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "S" "A" in
  let _ = Builder.trunk b Line_type.T56 "A" "T" in
  let _ = Builder.trunk b Line_type.T56 "S" "B" in
  let _ = Builder.trunk b Line_type.T56 "B" "T" in
  let g = Builder.build b in
  let t = Option.get (Graph.node_by_name g "T") in
  let s = Option.get (Graph.node_by_name g "S") in
  let a = Option.get (Graph.node_by_name g "A") in
  let at = Option.get (Graph.find_link g ~src:a ~dst:t) in
  let rspf =
    Reverse_spf.compute
      ~enabled:(fun lid -> not (Link.id_equal lid at.Link.id))
      g ~cost:(fun _ -> 10) t
  in
  Alcotest.(check int) "S has one next hop with A-T down" 1
    (List.length (Reverse_spf.next_hops rspf s));
  Alcotest.(check bool) "A rerouted the long way" true
    (Reverse_spf.dist_to rspf a = 30)

(* --- Flow sim: min-hop floods nothing, series lengths --- *)

let test_flow_sim_minhop_quiet () =
  let g = Generators.ring 6 in
  let tm = Traffic_matrix.uniform ~nodes:6 ~pair_bps:1000. in
  let sim = Flow_sim.create g Metric.Min_hop tm in
  let stats = Flow_sim.run sim ~periods:12 in
  List.iter
    (fun s -> Alcotest.(check int) "no updates ever" 0 s.Flow_sim.updates)
    stats;
  (* Static-capacity is equally quiet. *)
  let sim = Flow_sim.create g Metric.Static_capacity tm in
  let stats = Flow_sim.run sim ~periods:12 in
  List.iter
    (fun s -> Alcotest.(check int) "static floods nothing" 0 s.Flow_sim.updates)
    stats

(* --- Scripted scenarios --- *)

module Script = Routing_sim.Script

let script_text = {|
trunk A B 56T 0.002
trunk B C 56T 0.002
trunk A C 56T 0.002
demand A C 30000
at 100 link-down A C
at 200 link-up A C
at 300 metric dspf
at 400 scale 0.5
at 500 adaptive on
|}

let test_script_parses () =
  match Script.parse script_text with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "nodes" 3 (Graph.node_count s.Script.graph);
    Alcotest.(check int) "events" 5 (List.length s.Script.events);
    let times = List.map (fun e -> e.Script.at_s) s.Script.events in
    Alcotest.(check (list (float 1e-9))) "sorted" [ 100.; 200.; 300.; 400.; 500. ]
      times

let test_script_parse_errors () =
  let check text fragment =
    match Script.parse text with
    | Ok _ -> Alcotest.fail ("expected failure: " ^ text)
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" e fragment)
        true
        (Astring.String.is_infix ~affix:fragment e)
  in
  check "trunk A B 56T
at x link-down A B" "bad time";
  check "trunk A B 56T
at 10 frob A B" "unknown action";
  check "trunk A B 56T
at 10 metric nonsense" "unknown metric";
  check "trunk A B 56T
at 10 scale -2" "bad scale";
  (* Non-finite numbers are refused with the same located errors: an
     infinite scale would drive every demand to infinity on replay. *)
  check "trunk A B 56T
at 10 scale inf" "line 2: bad scale";
  check "trunk A B 56T
at 10 scale 1e400" "line 2: bad scale";
  check "trunk A B 56T
at inf link-down A B" "line 2: bad time"

let test_script_runs_events () =
  match Script.parse script_text with
  | Error e -> Alcotest.fail e
  | Ok s ->
    (* Watch the direct A-C link through the outage window. *)
    let g = s.Script.graph in
    let a = Option.get (Graph.node_by_name g "A") in
    let c = Option.get (Graph.node_by_name g "C") in
    let ac = Option.get (Graph.find_link g ~src:a ~dst:c) in
    let util_at = Hashtbl.create 16 in
    let sim =
      Script.run s ~periods:60 ~on_period:(fun sim stats ->
          Hashtbl.replace util_at stats.Flow_sim.time_s
            (Flow_sim.link_utilization sim ac.Link.id))
    in
    (* Before the outage the direct link carries the flow... *)
    Alcotest.(check bool) "carrying before outage" true
      (Hashtbl.find util_at 90. > 0.3);
    (* ...during the outage it carries nothing... *)
    Alcotest.(check (float 0.)) "dead during outage" 0.
      (Hashtbl.find util_at 150.);
    (* ...and the traffic survives via B. *)
    let late = List.nth (List.rev (Flow_sim.history sim)) 0 in
    Alcotest.(check bool) "scaled demand delivered at the end" true
      (late.Flow_sim.delivered_bps > 14_000.
      && late.Flow_sim.offered_bps < 16_000.)

let test_script_unknown_node_rejected () =
  (* Bad event references are now a parse-time error (with the line),
     not a mid-run Invalid_argument. *)
  match Script.parse "trunk A B 56T
at 10 link-down A Z" with
  | Ok _ -> Alcotest.fail "unknown event node should not parse"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S is located and names the node" e)
      true
      (Astring.String.is_prefix ~affix:"line 2:" e
      && Astring.String.is_infix ~affix:"\"Z\"" e)

let () =
  Alcotest.run "coverage"
    [ ( "serial",
        [ Alcotest.test_case "save/load file" `Quick test_serial_save_load_file;
          Alcotest.test_case "missing file" `Quick test_serial_load_missing_file;
          Alcotest.test_case "topology only" `Quick test_serial_topology_only ] );
      ( "metric",
        [ Alcotest.test_case "update counter" `Quick test_metric_update_counter;
          Alcotest.test_case "floor cap" `Quick test_min_cost_capped_for_long_lines
        ] );
      ( "stats",
        [ Alcotest.test_case "table decimals" `Quick test_table_float_decimals;
          Alcotest.test_case "time series growth" `Quick test_time_series_growth ]
      );
      ( "topology",
        [ Alcotest.test_case "two_region options" `Quick test_two_region_options ]
      );
      ( "multipath",
        [ Alcotest.test_case "reverse spf enabled" `Quick test_reverse_spf_enabled ]
      );
      ( "sim",
        [ Alcotest.test_case "static metrics quiet" `Quick
            test_flow_sim_minhop_quiet ] );
      ( "script",
        [ Alcotest.test_case "parses" `Quick test_script_parses;
          Alcotest.test_case "parse errors" `Quick test_script_parse_errors;
          Alcotest.test_case "runs events" `Quick test_script_runs_events;
          Alcotest.test_case "unknown node" `Quick test_script_unknown_node_rejected
        ] ) ]
