(* Behavioural tests for the period-driven flow simulator — the paper's
   control loop at 10-second resolution. *)

open Routing_topology
module Flow_sim = Routing_sim.Flow_sim
module Measure = Routing_sim.Measure
module Metric = Routing_metric.Metric
module Rng = Routing_stats.Rng
module Tracer = Routing_obs.Tracer
module Network = Routing_sim.Network
module Engine = Routing_sim.Engine
module Flow_store = Routing_sim.Flow_store
module Spf_engine = Routing_spf.Spf_engine

(* The Fig 1 scenario: two regions, two equal bridges, heavy inter-region
   load (~74% of combined bridge capacity). *)
let two_region_setup () =
  let g, (a, b) = Generators.two_region () in
  (g, Generators.two_region_traffic g, a, b)

let bridge_utils sim a b periods =
  List.init periods (fun _ ->
      ignore (Flow_sim.step sim);
      (Flow_sim.link_utilization sim a, Flow_sim.link_utilization sim b))

let test_dspf_oscillates () =
  let g, tm, a, b = two_region_setup () in
  let sim = Flow_sim.create g Metric.D_spf tm in
  let utils = bridge_utils sim a b 20 in
  let tail = List.filteri (fun i _ -> i >= 10) utils in
  (* §3.3: links A and B alternate instead of cooperating — each period one
     bridge carries (essentially) everything and the other nothing. *)
  let full_swings =
    List.length
      (List.filter (fun (ua, ub) -> Float.min ua ub < 0.05 && Float.max ua ub > 1.2)
         tail)
  in
  Alcotest.(check bool)
    (Printf.sprintf "most periods fully one-sided (%d/10)" full_swings)
    true (full_swings >= 8);
  (* And the sides alternate. *)
  let sides = List.map (fun (ua, ub) -> ua > ub) tail in
  let alternations =
    let rec count = function
      | x :: (y :: _ as rest) -> (if x <> y then 1 else 0) + count rest
      | _ -> 0
    in
    count sides
  in
  Alcotest.(check bool)
    (Printf.sprintf "sides alternate (%d/9)" alternations)
    true (alternations >= 8)

let test_hnspf_shares_load () =
  let g, tm, a, b = two_region_setup () in
  let sim = Flow_sim.create g Metric.Hn_spf tm in
  let utils = bridge_utils sim a b 20 in
  let tail = List.filteri (fun i _ -> i >= 10) utils in
  List.iter
    (fun (ua, ub) ->
      Alcotest.(check bool)
        (Printf.sprintf "both bridges carry traffic (%.2f/%.2f)" ua ub)
        true
        (ua > 0.2 && ub > 0.2 && ua < 1.0 && ub < 1.0))
    tail

let test_hnspf_carries_more_than_dspf () =
  let g, tm, a, b = two_region_setup () in
  let carried kind =
    let sim = Flow_sim.create g kind tm in
    ignore (bridge_utils sim a b 20);
    (Flow_sim.indicators sim ~skip:5 ()).Measure.internode_traffic_bps
  in
  let d = carried Metric.D_spf and h = carried Metric.Hn_spf in
  Alcotest.(check bool)
    (Printf.sprintf "HN-SPF delivers more (%.0f vs %.0f bps)" h d)
    true
    (h > 1.2 *. d)

let test_deterministic () =
  let g, tm, a, b = two_region_setup () in
  let run () =
    let sim = Flow_sim.create g Metric.D_spf tm in
    bridge_utils sim a b 12
  in
  Alcotest.(check bool) "bitwise repeatable" true (run () = run ())

let test_light_load_all_equal () =
  (* Under light loading "routing tends to be fairly independent of
     traffic conditions" (§3.1): all three metrics deliver everything with
     no drops. *)
  let g, (_, _) = Generators.two_region () in
  let tm = Traffic_matrix.create ~nodes:(Graph.node_count g) in
  Graph.iter_nodes g (fun src ->
      Graph.iter_nodes g (fun dst ->
          if not (Node.equal src dst) then Traffic_matrix.set tm ~src ~dst 100.));
  List.iter
    (fun kind ->
      let sim = Flow_sim.create g kind tm in
      ignore (Flow_sim.run sim ~periods:12);
      let i = Flow_sim.indicators sim ~skip:2 () in
      Alcotest.(check bool)
        (Printf.sprintf "%s no drops at light load" (Metric.kind_name kind))
        true
        (i.Measure.dropped_per_s < 0.001);
      Alcotest.(check bool) "everything delivered" true
        (i.Measure.internode_traffic_bps > 0.999 *. Traffic_matrix.total_bps tm))
    [ Metric.Min_hop; Metric.D_spf; Metric.Hn_spf ]

let test_switch_metric_mid_run () =
  let g, tm, a, b = two_region_setup () in
  let sim = Flow_sim.create g Metric.D_spf tm in
  ignore (bridge_utils sim a b 15);
  let before = Flow_sim.indicators sim ~skip:5 () in
  Flow_sim.switch_metric sim Metric.Hn_spf;
  ignore (bridge_utils sim a b 15);
  let after = Flow_sim.indicators sim ~skip:20 () in
  Alcotest.(check bool)
    (Printf.sprintf "installing the HNM cuts drops (%.1f -> %.1f)"
       before.Measure.dropped_per_s after.Measure.dropped_per_s)
    true
    (after.Measure.dropped_per_s < 0.5 *. before.Measure.dropped_per_s)

let test_link_failure_and_revival () =
  let g, tm, a, b = two_region_setup () in
  let sim = Flow_sim.create g Metric.Hn_spf tm in
  ignore (Flow_sim.run sim ~periods:10);
  (* Kill bridge A both ways: everything must pile onto B. *)
  let la = Graph.link g a in
  Flow_sim.set_link_up sim a false;
  Flow_sim.set_link_up sim (Graph.reverse g la).Link.id false;
  ignore (Flow_sim.run sim ~periods:5);
  Alcotest.(check (float 0.)) "A carries nothing" 0. (Flow_sim.link_utilization sim a);
  Alcotest.(check bool) "B oversubscribed" true
    (Flow_sim.link_utilization sim b > 1.2);
  (* Revive A: HN-SPF eases it in from its maximum cost, so traffic
     returns gradually rather than all at once (§5.4). *)
  Flow_sim.set_link_up sim a true;
  Flow_sim.set_link_up sim (Graph.reverse g la).Link.id true;
  Alcotest.(check int) "revived at ceiling" 90 (Flow_sim.link_cost sim a);
  (* Even at its ceiling the revived bridge keeps the routes whose only
     alternate is 2+ hops longer — HN-SPF never repels traffic further
     than two extra hops (§4.2) — and as the cost walks down, balanced
     sharing is restored. *)
  let utils = bridge_utils sim a b 10 in
  let ua9, ub9 = List.nth utils 9 in
  Alcotest.(check bool)
    (Printf.sprintf "sharing restored (%.2f/%.2f)" ua9 ub9)
    true
    (ua9 > 0.3 && ub9 > 0.3 && ua9 < 1.0 && ub9 < 1.0)

let test_adaptive_sources_relieve_overload () =
  let g, tm, a, b = two_region_setup () in
  (* 1.38x: ~103% of combined bridge capacity. *)
  let tm = Traffic_matrix.scale tm 1.38 in
  let sim = Flow_sim.create g Metric.D_spf tm in
  Flow_sim.set_adaptive_sources sim true;
  ignore (bridge_utils sim a b 40);
  let i = Flow_sim.indicators sim ~skip:25 () in
  (* Sources settle near what the bridges can carry, with small residual
     loss - instead of the 40%+ loss of open-loop D-SPF overload. *)
  Alcotest.(check bool)
    (Printf.sprintf "losses small once throttled (%.1f pkt/s)"
       i.Measure.dropped_per_s)
    true
    (i.Measure.dropped_per_s < 30.);
  Alcotest.(check bool)
    (Printf.sprintf "still using most of the capacity (%.0f bps)"
       i.Measure.internode_traffic_bps)
    true
    (i.Measure.internode_traffic_bps > 55_000.);
  (* Turning adaptation off restores the full offered load. *)
  Flow_sim.set_adaptive_sources sim false;
  let s = Flow_sim.step sim in
  Alcotest.(check bool) "throttles cleared" true
    (s.Flow_sim.offered_bps > 0.99 *. Traffic_matrix.total_bps tm)

(* Conservation: every period, offered = delivered + dropped exactly
   (the flow model has no in-flight storage between periods). *)
let prop_flow_conservation =
  QCheck2.Test.make ~name:"offered = delivered + dropped every period" ~count:25
    QCheck2.Gen.(pair (int_range 0 5_000) (float_range 0.2 2.5))
    (fun (seed, scale) ->
      let g = Generators.ring_chord (Rng.create seed) ~nodes:12 ~chords:6 in
      let tm =
        Traffic_matrix.scale
          (Traffic_matrix.gravity (Rng.create (seed + 9)) ~nodes:12
             ~total_bps:200_000.)
          scale
      in
      let sim = Flow_sim.create g Metric.Hn_spf tm in
      List.for_all
        (fun s ->
          Float.abs
            (s.Flow_sim.offered_bps -. s.Flow_sim.delivered_bps
           -. s.Flow_sim.dropped_bps)
          < 1e-6 *. Float.max 1. s.Flow_sim.offered_bps)
        (Flow_sim.run sim ~periods:15))

(* Chaos: random link flaps must never wedge the control loop.  Whatever
   the failure sequence, costs stay within the metric's bounds, nothing
   raises, and traffic flows whenever the graph is connected. *)
let prop_survives_random_link_flaps =
  QCheck2.Test.make ~name:"survives arbitrary link flap sequences" ~count:25
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Generators.ring_chord (Rng.create (seed + 1)) ~nodes:10 ~chords:5 in
      let tm =
        Traffic_matrix.gravity (Rng.create (seed + 2))
          ~nodes:(Graph.node_count g) ~total_bps:150_000.
      in
      let sim = Flow_sim.create g Metric.Hn_spf tm in
      let nl = Graph.link_count g in
      let down = Array.make nl false in
      let ok = ref true in
      for _ = 1 to 30 do
        (* Flip a random trunk (both directions together half the time). *)
        let l = Rng.int rng nl in
        let link = Graph.link g (Link.id_of_int l) in
        let flip i =
          down.(i) <- not down.(i);
          Flow_sim.set_link_up sim (Link.id_of_int i) (not down.(i))
        in
        flip l;
        if Rng.bool rng then flip (Link.id_to_int link.Link.reverse);
        let stats = Flow_sim.step sim in
        (* Cost bounds hold for every up link. *)
        Graph.iter_links g (fun (lk : Link.t) ->
            let i = Link.id_to_int lk.Link.id in
            if not down.(i) then begin
              let c = Flow_sim.link_cost sim lk.Link.id in
              let p =
                Routing_metric.Hnm_params.for_line_type lk.Link.line_type
              in
              if
                c < Routing_metric.Hnm_params.min_cost lk
                || c > p.Routing_metric.Hnm_params.max_cost
              then ok := false
            end);
        if stats.Flow_sim.delivered_bps < 0. then ok := false
      done;
      !ok)

let test_indicators_validation () =
  let g, tm, _, _ = two_region_setup () in
  let sim = Flow_sim.create g Metric.Hn_spf tm in
  Alcotest.(check bool) "raises with no periods" true
    (try
       ignore (Flow_sim.indicators sim ());
       false
     with Invalid_argument _ -> true);
  ignore (Flow_sim.step sim);
  Alcotest.(check int) "period index" 1 (Flow_sim.period_index sim);
  Alcotest.(check (float 1e-9)) "time" 10. (Flow_sim.time_s sim)

(* ROADMAP item 4's allocation-regression gate: a steady-state routing
   period must allocate zero minor words.  Measured with [Gc.minor_words]
   (noalloc, unboxed) deltas around [tick], which appends to preallocated
   history columns instead of consing records. *)
let measure_tick_words sim ~warmup ~measured =
  for _ = 1 to warmup do
    Flow_sim.tick sim
  done;
  let deltas = Array.make measured 0. in
  for k = 0 to measured - 1 do
    let before = Gc.minor_words () in
    Flow_sim.tick sim;
    deltas.(k) <- Gc.minor_words () -. before
  done;
  deltas

let test_static_steady_state_allocates_nothing () =
  let g, tm, _, _ = two_region_setup () in
  let sim = Flow_sim.create ~domains:1 g Metric.Static_capacity tm in
  let deltas = measure_tick_words sim ~warmup:30 ~measured:10 in
  Array.iteri
    (fun k d ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "static metric, period %d allocates nothing" k)
        0. d)
    deltas

let test_hnspf_quiet_periods_allocate_nothing () =
  (* Under HN-SPF the 50-second re-flood timer fires every 5 periods even
     in steady state; the quiet periods in between must allocate nothing
     even with a live flight recorder attached (untimed clock), the
     tentpole's no-per-event-allocation claim.  Flood periods are gated
     by the busy-period case below. *)
  let g, tm, _, _ = two_region_setup () in
  let tracer = Tracer.create () in
  let sim = Flow_sim.create ~domains:1 ~tracer g Metric.Hn_spf tm in
  let warmup = 30 and measured = 12 in
  let deltas = measure_tick_words sim ~warmup ~measured in
  let history = Array.of_list (Flow_sim.history sim) in
  let quiet = ref 0 in
  Array.iteri
    (fun k d ->
      let stats = history.(warmup + k) in
      if stats.Flow_sim.updates = 0 then begin
        incr quiet;
        Alcotest.(check (float 0.))
          (Printf.sprintf "quiet period %d allocates nothing" k)
          0. d
      end)
    deltas;
  Alcotest.(check bool)
    (Printf.sprintf "gate exercised on quiet periods (%d/%d)" !quiet measured)
    true (!quiet > 0);
  Alcotest.(check bool) "tracer recorded period spans" true
    (Tracer.slots tracer > 0 && Tracer.slot_recorded tracer 0 > 0)

(* Busy periods too: Table 1's pair on the ARPANET peak matrix floods
   every period, yet counted floods, in-place SPF recompute and repair
   and the reusable change set keep each period at zero words.  Warm-up
   covers the amortized doublings (SPF heap columns, change-set
   columns); the measured window ends before the history columns' next
   doubling at 64 periods. *)
let test_busy_periods_allocate_nothing () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 11) g in
  List.iter
    (fun (kind, scale) ->
      let name = Printf.sprintf "%s x%.2f" (Metric.kind_name kind) scale in
      let tracer = Tracer.create () in
      let sim =
        Flow_sim.create ~domains:1 ~tracer g kind (Traffic_matrix.scale tm scale)
      in
      let warmup = 30 and measured = 12 in
      let deltas = measure_tick_words sim ~warmup ~measured in
      let history = Array.of_list (Flow_sim.history sim) in
      Array.iteri
        (fun k d ->
          let stats = history.(warmup + k) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: period %d floods" name k)
            true (stats.Flow_sim.updates > 0);
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s: busy period %d allocates nothing" name k)
            0. d)
        deltas)
    [ (Metric.D_spf, 1.0); (Metric.Hn_spf, 1.13) ]

(* A replay adds nothing per period while no event is due: the due ones
   are a prefix of the sorted pending list, checked at its head, and
   without [on_period] no stats record is built.  Two replays of the
   static-metric steady state that differ only in length (both inside
   the history columns' first 64 slots) must allocate the same words,
   with an event pending past both ends the whole time. *)
let test_script_replay_allocation () =
  let module Script = Routing_sim.Script in
  let g, tm, _, _ = two_region_setup () in
  let script =
    { Script.graph = g;
      traffic = tm;
      events =
        [ { Script.at_s = 10_000.; action = Script.Scale_traffic 2.; line = 1 } ] }
  in
  let words periods =
    let before = Gc.minor_words () in
    ignore
      (Script.run ~domains:1 ~metric:Metric.Static_capacity script ~periods);
    Gc.minor_words () -. before
  in
  let short = words 30 in
  let long = words 60 in
  Alcotest.(check (float 0.)) "30 more periods allocate nothing" 0.
    (long -. short)

(* The packet DES: events are int rows, packets live in a pool, link
   FIFOs are int rings and each PSN forwards from an int column, so the
   event loop itself allocates nothing.  In this dev-profile build what
   is left per event (about 2.7 words) is floats boxed across
   [-opaque] module boundaries (a gap or size draw, a transmission
   time, a measured delay) plus per-period and per-receipt bookkeeping;
   a release build of the same rig, where those calls inline, reads
   about 0.03: routing-period bookkeeping and priority rings doubling
   at flood bursts.  D-SPF with
   hop-by-hop flooding on the ARPANET peak matrix exercises every event
   kind; warm-up grows the pool and the rings to their steady sizes. *)
let test_packet_des_allocation () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let config =
    { (Network.default_config Metric.D_spf) with
      Network.seed = 5;
      instant_flooding = false;
      record_series = false;
      domains = 1 }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:30.;
  let events0 = Engine.events_processed (Network.engine net) in
  let before = Gc.minor_words () in
  Network.run net ~duration_s:30.;
  let words = Gc.minor_words () -. before in
  let events = Engine.events_processed (Network.engine net) - events0 in
  let per_event = words /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event (%d events) under 4" per_event
       events)
    true
    (events > 10_000 && per_event < 4.)

(* Every [Flow_sim.create] builds its store from the matrix: the store
   adopts [Traffic_matrix.flows]'s exact-size columns (on the ARPANET
   too big for the minor heap), so what it allocates there is a few
   blocks whatever the flow count, not a word per flow. *)
let test_store_of_matrix_allocation () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let before = Gc.minor_words () in
  let store = Flow_store.of_matrix tm in
  let words = Gc.minor_words () -. before in
  let flows = Flow_store.length store in
  Alcotest.(check int) "one flow per entry"
    (Traffic_matrix.flow_count tm) flows;
  Alcotest.(check bool)
    (Printf.sprintf "of_matrix: %.0f minor words for %d flows, at most 32"
       words flows)
    true
    (flows > 1_000 && words <= 32.)

(* With worker domains, each minor collection's promotions are split
   among all domains, and a worker's share reaches the GC counters only at
   its next major slice.  Whatever a pooled simulator first allocates in a
   period, and keeps, is young at some later collection, and the
   allocation count of a later period includes a share of it or not
   depending on scheduling.  So a pooled simulator sizes up front what
   would otherwise first appear late: the parallel assignment scratch
   comes with the store (period one would allocate it after its last
   collection) and the engines' repair scratch with the engines (HN-SPF
   first repairs trees in period two).  The 39,800 flows are above the
   fan-out threshold. *)
let test_pooled_sim_sizes_up_front () =
  let g = Generators.ring_chord (Rng.create 99) ~nodes:200 ~chords:120 in
  let tm = Traffic_matrix.gravity (Rng.create 3) ~nodes:200 ~total_bps:2e6 in
  let promoted () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.promoted_words
  in
  (* From a fresh major cycle, so none ends (and empties the minor heaps)
     between the two readings. *)
  let promoted_over sim ~periods =
    Gc.full_major ();
    let before = promoted () in
    for _ = 1 to periods do
      Flow_sim.tick sim
    done;
    promoted () -. before
  in
  let unpooled = Flow_sim.create ~domains:1 g Metric.Hn_spf tm in
  let pooled = Flow_sim.create ~domains:2 g Metric.Hn_spf tm in
  let first_unpooled = promoted_over unpooled ~periods:1 in
  let first_pooled = promoted_over pooled ~periods:1 in
  let later = promoted_over pooled ~periods:2 in
  let repaired = (Flow_sim.spf_stats pooled).Spf_engine.sources_repaired in
  Alcotest.(check bool)
    (Printf.sprintf "periods two and three repair trees (%d)" repaired)
    true (repaired > 0);
  (* What period one keeps beyond the unpooled run is the workers' own
     SPF scratch and the fan-out bookkeeping: about 500 words, against
     about 3,000 when the assignment scratch comes with the first
     period. *)
  Alcotest.(check bool)
    (Printf.sprintf
       "period one keeps %.0f words pooled, %.0f unpooled: under 1,024 more"
       first_pooled first_unpooled)
    true
    (first_pooled -. first_unpooled < 1024.);
  Alcotest.(check bool)
    (Printf.sprintf "periods two and three keep %.0f words, under 256" later)
    true (later < 256.)

let test_route_change_counters () =
  let g, tm, _, _ = two_region_setup () in
  (* D-SPF's oscillation is route flapping by definition: flows stampede
     between the bridges every period, so route changes, A->B->A next-hop
     flips and link cost direction flips all accumulate. *)
  let sim = Flow_sim.create g Metric.D_spf tm in
  ignore (Flow_sim.run sim ~periods:20);
  let routes, nh, links = Flow_sim.route_change_totals sim in
  Alcotest.(check bool)
    (Printf.sprintf "D-SPF flaps routes (%d changes)" routes)
    true (routes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "D-SPF flips next hops A->B->A (%d)" nh)
    true (nh > 0);
  Alcotest.(check bool)
    (Printf.sprintf "D-SPF flips link cost directions (%d)" links)
    true (links > 0);
  (* Totals are exactly the per-period sums. *)
  let sum f =
    List.fold_left (fun acc s -> acc + f s) 0 (Flow_sim.history sim)
  in
  Alcotest.(check int) "routes total" routes
    (sum (fun s -> s.Flow_sim.routes_changed));
  Alcotest.(check int) "next-hop flips total" nh
    (sum (fun s -> s.Flow_sim.next_hop_flips));
  Alcotest.(check int) "link flips total" links
    (sum (fun s -> s.Flow_sim.link_flips));
  (* Indicators expose the same counters per period. *)
  let i = Flow_sim.indicators sim () in
  Alcotest.(check (float 1e-9)) "routes/period"
    (float_of_int routes /. 20.)
    i.Measure.route_changes_per_period;
  Alcotest.(check (float 1e-9)) "nh flips/period"
    (float_of_int nh /. 20.)
    i.Measure.next_hop_flips_per_period;
  Alcotest.(check (float 1e-9)) "link flips/period"
    (float_of_int links /. 20.)
    i.Measure.link_flips_per_period;
  (* HN-SPF's bounded movement quiets all three counters on the same
     workload (it may still adjust, but not flap every period). *)
  let hn = Flow_sim.create g Metric.Hn_spf tm in
  ignore (Flow_sim.run hn ~periods:20);
  let hn_routes, _, _ = Flow_sim.route_change_totals hn in
  Alcotest.(check bool)
    (Printf.sprintf "HN-SPF changes fewer routes (%d vs %d)" hn_routes routes)
    true
    (hn_routes < routes)

let test_delay_percentile_indicators () =
  let g, tm, _, _ = two_region_setup () in
  let sim = Flow_sim.create g Metric.Hn_spf tm in
  ignore (Flow_sim.run sim ~periods:20);
  let i = Flow_sim.indicators sim () in
  Alcotest.(check bool)
    (Printf.sprintf "p50 <= p95 <= p99 (%.2f/%.2f/%.2f ms)" i.Measure.delay_p50_ms
       i.Measure.delay_p95_ms i.Measure.delay_p99_ms)
    true
    (i.Measure.delay_p50_ms > 0.
    && i.Measure.delay_p50_ms <= i.Measure.delay_p95_ms
    && i.Measure.delay_p95_ms <= i.Measure.delay_p99_ms)

let test_history_order () =
  let g, tm, _, _ = two_region_setup () in
  let sim = Flow_sim.create g Metric.Hn_spf tm in
  ignore (Flow_sim.run sim ~periods:5);
  let times = List.map (fun s -> s.Flow_sim.time_s) (Flow_sim.history sim) in
  Alcotest.(check (list (float 1e-9))) "oldest first" [ 10.; 20.; 30.; 40.; 50. ]
    times

let () =
  Alcotest.run "flow_sim"
    [ ( "oscillation (Fig 1)",
        [ Alcotest.test_case "D-SPF oscillates" `Quick test_dspf_oscillates;
          Alcotest.test_case "HN-SPF shares" `Quick test_hnspf_shares_load;
          Alcotest.test_case "HN-SPF carries more" `Quick
            test_hnspf_carries_more_than_dspf ] );
      ( "mechanics",
        [ Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "light load" `Quick test_light_load_all_equal;
          Alcotest.test_case "metric switch" `Quick test_switch_metric_mid_run;
          Alcotest.test_case "failure + easing revival" `Quick
            test_link_failure_and_revival;
          Alcotest.test_case "adaptive sources" `Quick
            test_adaptive_sources_relieve_overload;
          Alcotest.test_case "indicators validation" `Quick
            test_indicators_validation;
          Alcotest.test_case "history order" `Quick test_history_order ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_flow_conservation; prop_survives_random_link_flaps ] );
      ( "allocation gate",
        [ Alcotest.test_case "static metric steady state" `Quick
            test_static_steady_state_allocates_nothing;
          Alcotest.test_case "HN-SPF quiet periods (traced)" `Quick
            test_hnspf_quiet_periods_allocate_nothing;
          Alcotest.test_case "Table 1 busy periods (traced)" `Quick
            test_busy_periods_allocate_nothing;
          Alcotest.test_case "scripted replay, no event due" `Quick
            test_script_replay_allocation;
          Alcotest.test_case "packet DES" `Quick test_packet_des_allocation;
          Alcotest.test_case "flow store from matrix" `Quick
            test_store_of_matrix_allocation;
          Alcotest.test_case "pooled sim sizes up front" `Quick
            test_pooled_sim_sizes_up_front ] );
      ( "route changes",
        [ Alcotest.test_case "counters" `Quick test_route_change_counters;
          Alcotest.test_case "delay percentiles" `Quick
            test_delay_percentile_indicators ] ) ]
