(* Tests for the routing_obs telemetry library and its simulator wiring:
   JSON/JSONL round-trips, the oscillation detector separating D-SPF from
   HN-SPF on a fixed scenario, and the telemetry bytes of fixed runs. *)

module Json = Routing_obs.Json
module Sink = Routing_obs.Sink
module Metrics = Routing_obs.Metrics
module Span = Routing_obs.Span
module Oscillation = Routing_obs.Oscillation
module Telemetry = Routing_obs.Telemetry
module Tracer = Routing_obs.Tracer
module Trace = Routing_sim.Trace
module Flow_sim = Routing_sim.Flow_sim
module Network = Routing_sim.Network
module Serial = Routing_topology.Serial
module Graph = Routing_topology.Graph
module Traffic_matrix = Routing_topology.Traffic_matrix
module Node = Routing_topology.Node
module Link = Routing_topology.Link
module Metric = Routing_metric.Metric

(* --- Json --- *)

let test_json_parse_basics () =
  let ok s = Result.get_ok (Json.of_string s) in
  Alcotest.(check bool) "null" true (ok "null" = Json.Null);
  Alcotest.(check bool) "int" true (ok "-42" = Json.Int (-42));
  Alcotest.(check bool) "float" true (ok "2.5" = Json.Float 2.5);
  Alcotest.(check bool) "escape" true (ok {|"a\n\"b\""|} = Json.String "a\n\"b\"");
  Alcotest.(check bool)
    "nested" true
    (Json.equal
       (ok {|{"a": [1, true, null], "b": {"c": "d"}}|})
       (Json.Obj
          [ ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
            ("b", Json.Obj [ ("c", Json.String "d") ]) ]));
  Alcotest.(check bool)
    "trailing garbage rejected" true
    (Result.is_error (Json.of_string "1 2"));
  Alcotest.(check bool)
    "unterminated rejected" true
    (Result.is_error (Json.of_string "[1, 2"))

let json_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
        map (fun f -> Json.Float f) (float_bound_exclusive 1e9);
        map
          (fun s -> Json.String s)
          (string_size ~gen:(char_range '\000' '\126') (int_range 0 12)) ]
  in
  sized_size (int_range 0 3) @@ fix (fun self n ->
      if n = 0 then scalar
      else
        oneof
          [ scalar;
            map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n - 1)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
                    (self (n - 1)))) ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"json to_string/of_string round-trip" ~count:500
    json_gen (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> Json.equal j j'
      | Error _ -> false)

let prop_json_pretty_roundtrip =
  QCheck2.Test.make ~name:"json pretty printer round-trips too" ~count:200
    json_gen (fun j ->
      match Json.of_string (Json.to_string_pretty j) with
      | Ok j' -> Json.equal j j'
      | Error _ -> false)

(* --- Trace events over JSONL --- *)

let event_gen =
  let open QCheck2.Gen in
  let node = map Node.of_int (int_range 0 99) in
  let reason = oneofl Trace.all_reasons in
  oneof
    [ map3
        (fun src dst (delay_s, hops) ->
          Trace.Packet_delivered { src; dst; delay_s; hops })
        node node
        (pair (float_bound_exclusive 10.) (int_range 1 20));
      map3
        (fun at src (dst, reason) -> Trace.Packet_dropped { at; src; dst; reason })
        node node (pair node reason);
      map2 (fun origin links -> Trace.Update_flooded { origin; links })
        node (int_range 1 8);
      map3
        (fun at origin latency_s -> Trace.Update_accepted { at; origin; latency_s })
        node node (float_bound_exclusive 2.);
      map (fun at -> Trace.Tables_recomputed { at }) node;
      map2
        (fun l up -> Trace.Link_state { link = Link.id_of_int l; up })
        (int_range 0 50) bool ]

let prop_trace_jsonl_roundtrip =
  QCheck2.Test.make ~name:"trace event JSONL round-trip" ~count:500
    QCheck2.Gen.(pair (float_bound_exclusive 1e6) event_gen)
    (fun (time, event) ->
      let line = Json.to_string (Trace.to_json ~time event) in
      match Result.bind (Json.of_string line) Trace.of_json with
      | Ok (time', event') -> time' = time && event' = event
      | Error _ -> false)

let test_trace_of_json_rejects () =
  let bad s =
    Result.is_error (Result.bind (Json.of_string s) Trace.of_json)
  in
  Alcotest.(check bool) "unknown ev" true (bad {|{"t":1.0,"ev":"nope"}|});
  Alcotest.(check bool) "missing field" true
    (bad {|{"t":1.0,"ev":"deliver","src":1,"dst":2,"hops":3}|});
  Alcotest.(check bool) "unknown reason" true
    (bad {|{"t":1.0,"ev":"drop","at":0,"src":1,"dst":2,"reason":"gremlins"}|});
  Alcotest.(check bool) "not an object" true (bad "[1,2]")

(* --- Sink --- *)

let test_sink_buffer_jsonl () =
  let s = Sink.buffer () in
  Sink.emit s (fun () -> Json.Obj [ ("a", Json.Int 1) ]);
  Sink.emit s (fun () -> Json.Obj [ ("b", Json.Bool false) ]);
  Alcotest.(check int) "emitted" 2 (Sink.emitted s);
  let lines =
    String.split_on_char '\n' (String.trim (Sink.contents s))
  in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line parses" true
        (Result.is_ok (Json.of_string l)))
    lines

let test_sink_null_is_lazy () =
  let s = Sink.null in
  let forced = ref false in
  Sink.emit s (fun () -> forced := true; Json.Null);
  Alcotest.(check bool) "thunk not forced" false !forced;
  Alcotest.(check int) "nothing emitted" 0 (Sink.emitted s)

(* --- Metrics registry --- *)

let test_metrics_snapshot_sorted_and_typed () =
  let m = Metrics.create () in
  Metrics.set_meta m "seed" "7";
  let c = Metrics.counter m ~labels:[ ("reason", "ttl") ] "drops" in
  Metrics.inc c;
  Metrics.inc ~by:2 c;
  Metrics.set (Metrics.gauge m "depth") 3.5;
  Metrics.sample (Metrics.series m "util") ~time:10. 0.25;
  let j = Metrics.to_json m in
  let names =
    match Json.member "metrics" j with
    | Ok (Json.List l) ->
      List.map
        (fun e -> Result.get_ok Json.(Result.bind (member "name" e) to_str))
        l
    | _ -> []
  in
  Alcotest.(check (list string)) "sorted by name"
    [ "depth"; "drops"; "util" ] names;
  Alcotest.(check int) "counter value" 3 (Metrics.counter_value c);
  (* registration is idempotent: same handle state *)
  let c' = Metrics.counter m ~labels:[ ("reason", "ttl") ] "drops" in
  Metrics.inc c';
  Alcotest.(check int) "idempotent registration" 4 (Metrics.counter_value c)

let test_metrics_kind_collision () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.(check bool) "kind collision raises" true
    (try ignore (Metrics.gauge m "x"); false
     with Invalid_argument _ -> true)

(* --- Span --- *)

let test_span_untimed_deterministic () =
  let s = Span.create ~clock:Span.untimed () in
  let record st =
    Span.enter st;
    ignore (Sys.opaque_identity (Array.make 5 0));
    Span.leave st
  in
  let stage = Span.stage ~profile:s Tracer.null in
  let work = stage "work" and work' = stage "work" in
  record work;
  record work;
  record work';
  record (stage "alpha");
  match Span.report s with
  | [ a; w ] ->
    Alcotest.(check string) "sorted" "alpha" a.Span.name;
    Alcotest.(check int) "stages of one name share a row" 3 w.Span.count;
    Alcotest.(check (float 0.)) "untimed total" 0. w.Span.total_s;
    Alcotest.(check (float 0.)) "untimed words" 0. w.Span.minor_words
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

(* --- Oscillation detector --- *)

let test_oscillation_flags_square_wave () =
  let o = Oscillation.create ~window:12 ~max_flips:4 ~links:2 () in
  let fired = ref [] in
  for tick = 0 to 19 do
    (* link 0 swings every period; link 1 climbs monotonically *)
    Oscillation.observe o ~link:0 ~tick
      ~cost:(if tick land 1 = 0 then 10 else 100)
      ~on_flag:(fun ~link ~tick:_ ~flips:_ -> fired := link :: !fired);
    Oscillation.observe o ~link:1 ~tick ~cost:(10 + tick)
  done;
  Alcotest.(check (list int)) "only the square wave" [ 0 ]
    (Oscillation.ever_flagged o);
  Alcotest.(check (list int)) "on_flag fired once" [ 0 ] !fired;
  Alcotest.(check int) "monotone link has no flips" 0
    (Oscillation.flips_in_window o ~link:1)

let test_oscillation_window_drains () =
  let o = Oscillation.create ~window:5 ~max_flips:2 ~links:1 () in
  List.iteri
    (fun tick cost -> Oscillation.observe o ~link:0 ~tick ~cost)
    [ 10; 90; 10; 90; 10 ];
  Alcotest.(check (list int)) "flagged while swinging" [ 0 ]
    (Oscillation.flagged o);
  (* far in the future the window is empty again *)
  Oscillation.observe o ~link:0 ~tick:1000 ~cost:10;
  Alcotest.(check (list int)) "calm after drain" [] (Oscillation.flagged o);
  Alcotest.(check (list int)) "history remembers" [ 0 ]
    (Oscillation.ever_flagged o)

(* A reference detector the tick-based one must match: float times, and
   each link's flips a list of times, pruned to the trailing [width_s]
   seconds on every observation. *)
module List_detector = struct
  type link_state = {
    mutable last_cost : int;
    mutable seen : bool;
    mutable direction : int;
    mutable flips : float list; (* newest first, within window *)
    mutable flips_total : int;
    mutable flagged : bool;
    mutable ever : bool;
  }

  type t = {
    width_s : float;
    max_flips : int;
    states : link_state array;
    mutable flag_count : int;
    mutable flips_total : int;
  }

  let create ~width_s ~max_flips ~links =
    { width_s;
      max_flips;
      states =
        Array.init links (fun _ ->
            { last_cost = 0;
              seen = false;
              direction = 0;
              flips = [];
              flips_total = 0;
              flagged = false;
              ever = false });
      flag_count = 0;
      flips_total = 0 }

  let rec keep_within horizon = function
    | x :: rest when x >= horizon -> x :: keep_within horizon rest
    | _ -> []

  let observe ~on_flag t ~link ~time ~cost =
    let s = t.states.(link) in
    s.flips <- keep_within (time -. t.width_s) s.flips;
    (if not s.seen then begin
       s.seen <- true;
       s.last_cost <- cost
     end
     else if cost <> s.last_cost then begin
       let direction = if cost > s.last_cost then 1 else -1 in
       if s.direction <> 0 && direction <> s.direction then begin
         s.flips <- time :: s.flips;
         s.flips_total <- s.flips_total + 1;
         t.flips_total <- t.flips_total + 1
       end;
       s.direction <- direction;
       s.last_cost <- cost
     end);
    let n = List.length s.flips in
    if n > t.max_flips then begin
      if not s.flagged then begin
        s.flagged <- true;
        s.ever <- true;
        t.flag_count <- t.flag_count + 1;
        on_flag ~link ~time ~flips:n
      end
    end
    else s.flagged <- false

  let links pred t =
    List.filter (fun i -> pred t.states.(i))
      (List.init (Array.length t.states) Fun.id)
end

(* Random windows, thresholds, link counts and cost sequences; ticks rise
   strictly, each round observes a random subset of the links once, and
   the model sees time = 10 x tick with a 10 x window-second window. *)
let prop_oscillation_matches_list_model =
  let open QCheck2.Gen in
  let round links =
    pair (int_range 1 6)
      (list_size (return links) (opt ~ratio:0.8 (int_range 0 3)))
  in
  let case =
    triple (int_range 1 15) (int_range 1 6) (int_range 1 4) >>= fun (w, m, l) ->
    map (fun rounds -> (w, m, l, rounds)) (list_size (int_range 0 80) (round l))
  in
  QCheck2.Test.make ~name:"tick detector = list-window model" ~count:300 case
    (fun (window, max_flips, links, rounds) ->
      let o = Oscillation.create ~window ~max_flips ~links () in
      let m =
        List_detector.create ~width_s:(10. *. float_of_int window) ~max_flips
          ~links
      in
      let got = ref [] and want = ref [] in
      let on_flag ~link ~tick ~flips = got := (link, tick, flips) :: !got in
      let model_flag ~link ~time ~flips =
        want := (link, int_of_float (time /. 10.), flips) :: !want
      in
      let agree () =
        Oscillation.flagged o = List_detector.links (fun s -> s.flagged) m
        && Oscillation.ever_flagged o
           = List_detector.links (fun s -> s.ever) m
        && Oscillation.flag_count o = m.flag_count
        && Oscillation.total_flips o = m.flips_total
        && List.for_all
             (fun link ->
               let s = m.states.(link) in
               Oscillation.link_total_flips o ~link = s.flips_total
               && Oscillation.flips_in_window o ~link = List.length s.flips)
             (List.init links Fun.id)
        && !got = !want
      in
      let tick = ref 0 in
      List.for_all
        (fun (gap, costs) ->
          tick := !tick + gap;
          let time = 10. *. float_of_int !tick in
          List.iteri
            (fun link -> function
              | None -> ()
              | Some cost ->
                Oscillation.observe ~on_flag o ~link ~tick:!tick ~cost;
                List_detector.observe ~on_flag:model_flag m ~link ~time ~cost)
            costs;
          agree ())
        rounds)

(* Observing allocates nothing: int columns and a ring of flip ticks,
   where the list window consed a boxed float per flip.  A square wave
   on every link flips each tick, so after warm-up the rings wrap on
   every observation. *)
let test_oscillation_observe_allocates_nothing () =
  let links = 8 in
  let o = Oscillation.create ~links () in
  let feed tick =
    for link = 0 to links - 1 do
      Oscillation.observe o ~link ~tick
        ~cost:(if (tick + link) land 1 = 0 then 10 else 90)
    done
  in
  for tick = 1 to 40 do
    feed tick
  done;
  let before = Gc.minor_words () in
  for tick = 41 to 240 do
    feed tick
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every link flagged" links
    (List.length (Oscillation.flagged o));
  Alcotest.(check (float 0.)) "200 ticks of flips allocate nothing" 0. words

(* --- Fixed-seed scenario: the detector separates the metrics --- *)

(* dune runtest runs in _build/default/test (the scenario ships as a test
   dep one directory up); `dune exec test/test_obs.exe` runs from the
   project root. *)
let scenario_path =
  let relative = Filename.concat ".." "scenarios/arpanet_peak.scn" in
  if Sys.file_exists relative then relative else "scenarios/arpanet_peak.scn"

let run_scenario kind =
  let g, tm =
    match Serial.load scenario_path with
    | Ok gt -> gt
    | Error m -> Alcotest.failf "cannot load %s: %s" scenario_path m
  in
  (* max_flips 9: D-SPF's per-period full-range swings exceed it (§3.3,
     Fig 1); HN-SPF's bounded movement stays well under (probed: 13 vs 7
     worst-case flips per 120 s window on this workload). *)
  let tele = Telemetry.create ~osc_max_flips:9 () in
  let sim = Flow_sim.create ~telemetry:tele g kind tm in
  for _ = 1 to 30 do ignore (Flow_sim.step sim) done;
  Option.get (Telemetry.oscillation tele)

let test_oscillation_dspf_vs_hnspf () =
  let dspf = run_scenario Metric.D_spf in
  Alcotest.(check bool) "D-SPF oscillates" true
    (Oscillation.ever_flagged dspf <> []);
  let hnspf = run_scenario Metric.Hn_spf in
  Alcotest.(check (list int)) "HN-SPF stays calm" []
    (Oscillation.ever_flagged hnspf)

(* --- One stage recorder: the tracer's stage spans are the profile's --- *)

(* Begin events per span name on every track of a tracer. *)
let tracer_span_counts tr =
  let counts = Hashtbl.create 8 in
  for slot = 0 to Tracer.slots tr - 1 do
    Tracer.iter_slot tr slot (fun ~ts:_ ~kind ~name ~a:_ ~b:_ ->
        if kind = Tracer.Begin then begin
          let n = Tracer.name tr name in
          Hashtbl.replace counts n
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
        end)
  done;
  List.sort compare (Hashtbl.fold (fun n c acc -> (n, c) :: acc) counts [])

let profile_counts tele =
  List.map (fun (r : Span.row) -> (r.name, r.count))
    (Span.report (Telemetry.spans tele))

(* Spans the SPF engines record into the tracer alone. *)
let engine_spans = [ "spf_recompute"; "spf_repair" ]

let stage_spans counts =
  List.filter (fun (n, _) -> not (List.mem n engine_spans)) counts

(* A flow run with a live tracer and a bundle records each of its six
   stages into both, under one name and one count. *)
let test_flow_stages_one_recorder () =
  let g, tm =
    match Serial.load scenario_path with
    | Ok gt -> gt
    | Error m -> Alcotest.failf "cannot load %s: %s" scenario_path m
  in
  let tracer = Tracer.create () in
  let tele = Telemetry.create ~tracer () in
  let sim = Flow_sim.create ~telemetry:tele g Metric.D_spf tm in
  for _ = 1 to 5 do Flow_sim.tick sim done;
  let profile = profile_counts tele in
  Alcotest.(check (list (pair string int))) "six stages, once a period"
    (List.map
       (fun n -> (n, 5))
       [ "flood"; "flow_account"; "flow_assign"; "flow_metrics";
         "routing_period"; "spf_refresh" ])
    profile;
  Alcotest.(check (list (pair string int))) "tracer stage spans = profile"
    profile
    (stage_spans (tracer_span_counts tracer))

(* Two packet DES networks flight-record into one tracer, each with its
   own bundle: the tracer holds both networks' stage spans, and each
   bundle's profile counts its own network's alone. *)
let test_des_stages_shared_tracer () =
  let g, _ = Routing_topology.Generators.two_region () in
  let tm = Traffic_matrix.create ~nodes:(Graph.node_count g) in
  Graph.iter_nodes g (fun src ->
      Graph.iter_nodes g (fun dst ->
          if src <> dst then Traffic_matrix.set tm ~src ~dst 2000.));
  let tracer = Tracer.create () in
  let net kind seconds =
    let tele = Telemetry.create ~tracer () in
    let config =
      { (Network.default_config kind) with
        Network.seed = 9;
        domains = 1;
        telemetry = Some tele }
    in
    Network.run (Network.create ~config g tm) ~duration_s:seconds;
    profile_counts tele
  in
  let a = net Metric.D_spf 30. and b = net Metric.Hn_spf 50. in
  let count name rows = Option.value ~default:0 (List.assoc_opt name rows) in
  Alcotest.(check (list int)) "each bundle counts its own periods" [ 3; 5 ]
    [ count "routing_period" a; count "routing_period" b ];
  Alcotest.(check (list int)) "and its own floods" [ 3; 5 ]
    [ count "flood" a; count "flood" b ];
  let names = [ "flood"; "routing_period"; "spf_refresh" ] in
  Alcotest.(check (list string)) "three stages per bundle" names
    (List.map fst a);
  Alcotest.(check (list (pair string int)))
    "the shared tracer holds both networks' stage spans"
    (List.map (fun n -> (n, count n a + count n b)) names)
    (stage_spans (tracer_span_counts tracer))

(* --- Telemetry end-to-end determinism --- *)

let test_flow_telemetry_deterministic () =
  let g, tm =
    match Serial.load scenario_path with
    | Ok gt -> gt
    | Error m -> Alcotest.failf "cannot load %s: %s" scenario_path m
  in
  let run () =
    let tele = Telemetry.create ~sink:(Sink.buffer ()) () in
    let sim = Flow_sim.create ~telemetry:tele g Metric.Hn_spf tm in
    for _ = 1 to 12 do ignore (Flow_sim.step sim) done;
    ( Json.to_string (Telemetry.snapshot_json tele),
      Sink.contents (Telemetry.sink tele) )
  in
  let snap1, trace1 = run () in
  let snap2, trace2 = run () in
  Alcotest.(check string) "snapshots byte-identical" snap1 snap2;
  Alcotest.(check string) "traces byte-identical" trace1 trace2;
  List.iter
    (fun line ->
      if String.trim line <> "" then
        Alcotest.(check bool) "trace line parses" true
          (Result.is_ok (Json.of_string line)))
    (String.split_on_char '\n' trace1)

(* --- Telemetry bytes pinned across commits --- *)

(* MD5s of the metrics snapshot (as --metrics-out pretty-prints it) and of
   the JSONL stream (as --trace-out writes it) for two fixed runs.  The
   deterministic end-to-end test above compares two runs of one build;
   these digests hold every later build to the same bytes, so a refactor
   of the recording path cannot move a counter, a series point or an
   event line unnoticed. *)
let telemetry_digests tele =
  ( Digest.to_hex
      (Digest.string (Json.to_string_pretty (Telemetry.snapshot_json tele))),
    Digest.to_hex (Digest.string (Sink.contents (Telemetry.sink tele))) )

(* D-SPF on the Fig 1 two-region topology in the packet DES: 120 s of
   left-to-right load, then one bridge down for 20 s.  With the detector
   flagging above 3 flips the stream also carries oscillation events. *)
let two_region_des_telemetry () =
  let g, (bridge, _) = Routing_topology.Generators.two_region () in
  let tm = Routing_topology.Generators.two_region_traffic g in
  let tele = Telemetry.create ~sink:(Sink.buffer ()) ~osc_max_flips:3 () in
  let config =
    { (Network.default_config Metric.D_spf) with
      Network.seed = 3;
      telemetry = Some tele }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:120.;
  Network.set_link_up net bridge false;
  Network.run net ~duration_s:20.;
  tele

let test_telemetry_golden_bytes () =
  let des = two_region_des_telemetry () in
  Alcotest.(check bool) "DES stream carries an oscillation event" true
    (Astring.String.is_infix ~affix:{|"ev":"oscillation"|}
       (Sink.contents (Telemetry.sink des)));
  Alcotest.(check (pair string string)) "two-region DES snapshot, stream"
    ("a6d437685f89c63919c8a9a90e064f27", "43c7ad95055de6f3b6f11ec4b259264e")
    (telemetry_digests des);
  let g, tm =
    match Serial.load scenario_path with
    | Ok gt -> gt
    | Error m -> Alcotest.failf "cannot load %s: %s" scenario_path m
  in
  let tele = Telemetry.create ~sink:(Sink.buffer ()) () in
  let sim = Flow_sim.create ~telemetry:tele g Metric.Hn_spf tm in
  for _ = 1 to 12 do ignore (Flow_sim.step sim) done;
  Alcotest.(check (pair string string)) "arpanet_peak flow snapshot, stream"
    ("a60b5c1a50b84d77cc536a9c3b15b078", "f9bff5d7fb31841ab2e7349e419165c1")
    (telemetry_digests tele)

(* The cost-in-hops series divides each flooded cost by the link's idle
   cost under the metric's kind.  The hooks build that table once per
   kind, so a metric switch must rebuild it: a fresh metric reports its
   idle costs, so every sample reads exactly 1 hop before and after each
   switch, where a stale table would not (the two kinds' idle costs
   differ). *)
let test_cost_hops_follow_metric_switch () =
  let module Builder = Routing_topology.Builder in
  let module Line_type = Routing_topology.Line_type in
  let module Hooks = Routing_sim.Telemetry_hooks in
  let module Time_series = Routing_stats.Time_series in
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T9_6 "B" "C" in
  let g = Builder.build b in
  let nl = Graph.link_count g in
  let idle kind l = Metric.idle_cost kind l in
  Alcotest.(check bool) "idle costs differ between kinds" true
    (List.exists
       (fun l -> idle Metric.D_spf l <> idle Metric.Hn_spf l)
       (Graph.links g));
  let tele = Telemetry.create () in
  (* Adopted before the hooks attach, so their series are these. *)
  let series =
    Array.init nl (fun i ->
        let ts = Time_series.create "link_cost_hops" in
        Metrics.adopt_series (Telemetry.metrics tele)
          ~labels:(Hooks.link_label i) "link_cost_hops" ts;
        ts)
  in
  let osc = Oscillation.create ~links:nl () in
  let hooks = Hooks.attach tele ~links:nl ~osc in
  List.iteri
    (fun k kind ->
      Hooks.observe_costs hooks g (Metric.create kind g)
        ~time:(float_of_int (10 * (k + 1))))
    [ Metric.D_spf; Metric.D_spf; Metric.Hn_spf; Metric.Min_hop; Metric.D_spf ];
  Array.iter
    (fun ts ->
      Alcotest.(check int) "one sample per period" 5 (Time_series.length ts);
      Time_series.iter ts (fun ~time ~value ->
          Alcotest.(check (float 0.)) (Printf.sprintf "t=%g" time) 1. value))
    series

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_obs"
    [ ( "json",
        [ Alcotest.test_case "parse basics" `Quick test_json_parse_basics ]
        @ qsuite [ prop_json_roundtrip; prop_json_pretty_roundtrip ] );
      ( "trace",
        [ Alcotest.test_case "of_json rejects" `Quick test_trace_of_json_rejects ]
        @ qsuite [ prop_trace_jsonl_roundtrip ] );
      ( "sink",
        [ Alcotest.test_case "buffer emits JSONL" `Quick test_sink_buffer_jsonl;
          Alcotest.test_case "null is lazy" `Quick test_sink_null_is_lazy ] );
      ( "metrics",
        [ Alcotest.test_case "snapshot sorted" `Quick
            test_metrics_snapshot_sorted_and_typed;
          Alcotest.test_case "kind collision" `Quick test_metrics_kind_collision ] );
      ( "span",
        [ Alcotest.test_case "untimed deterministic" `Quick
            test_span_untimed_deterministic ] );
      ( "oscillation",
        [ Alcotest.test_case "square wave" `Quick
            test_oscillation_flags_square_wave;
          Alcotest.test_case "window drains" `Quick
            test_oscillation_window_drains;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_oscillation_observe_allocates_nothing;
          Alcotest.test_case "D-SPF vs HN-SPF" `Slow
            test_oscillation_dspf_vs_hnspf ]
        @ qsuite [ prop_oscillation_matches_list_model ] );
      ( "telemetry",
        [ Alcotest.test_case "deterministic end-to-end" `Slow
            test_flow_telemetry_deterministic;
          Alcotest.test_case "golden bytes" `Slow test_telemetry_golden_bytes;
          Alcotest.test_case "flow stages: tracer and profile agree" `Quick
            test_flow_stages_one_recorder;
          Alcotest.test_case "DES stages: one tracer, one bundle each" `Quick
            test_des_stages_shared_tracer;
          Alcotest.test_case "cost hops follow a metric switch" `Quick
            test_cost_hops_follow_metric_switch ]
      ) ]
