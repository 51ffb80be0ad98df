(* One pass of one perfbench workload: set up, warm up, time a fixed
   amount of simulation, check the outputs and print one JSON line.

   A pass is a closed loop driven from this process: the next routing
   period (or the next sweep) starts only after the previous one returns.
   It calls only the library's public entry points.  Untraced passes feed
   the end-to-end metrics.  Traced passes ([--trace 1]) hand a wall-clock
   [Tracer] (and, for the packet DES, a wall-clock [Telemetry] bundle)
   through the existing public arguments, read the counters public
   getters expose, and time directly the layer calls no span covers; the
   per-layer ledger is built here, from outside the library.

   run.py starts passes in fresh processes, pools their samples and does
   all the statistics. *)

module Arpanet = Routing_topology.Arpanet
module Generators = Routing_topology.Generators
module Graph = Routing_topology.Graph
module Link = Routing_topology.Link
module Node = Routing_topology.Node
module Traffic_matrix = Routing_topology.Traffic_matrix
module Rng = Routing_stats.Rng
module Welford = Routing_stats.Welford
module Metric = Routing_metric.Metric
module Dijkstra = Routing_spf.Dijkstra
module Routing_table = Routing_spf.Routing_table
module Spf_engine = Routing_spf.Spf_engine
module Flow_sim = Routing_sim.Flow_sim
module Flow_store = Routing_sim.Flow_store
module Load_assign = Routing_sim.Load_assign
module Measure = Routing_sim.Measure
module Network = Routing_sim.Network
module Engine = Routing_sim.Engine
module Json = Routing_obs.Json
module Span = Routing_obs.Span
module Telemetry = Routing_obs.Telemetry
module Tracer = Routing_obs.Tracer
module Sweep_spec = Routing_sweep.Sweep_spec
module Sweep_engine = Routing_sweep.Sweep_engine

(* Pass sizes.  A pass is a fixed amount of simulation, so its checked
   outputs are a pure function of (workload, seed). *)
let table1_warmup = 30
let table1_periods = 400
let million_warmup = 3
let million_periods = 10
let des_warmup = 2
let des_periods = 10
let sweep_runs = 4

(* May 87 = D-SPF at nominal load; Aug 87 = HN-SPF at +13 % traffic. *)
let table1_pair = [| (Metric.D_spf, 1.0); (Metric.Hn_spf, 1.13) |]

let now = Unix.gettimeofday

let period_s = Routing_metric.Units.routing_period_s

(* Collect every domain's minor heap first, so the counters cover worker
   domains too (they sync at collections). *)
let gc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let indicator_values (i : Measure.indicators) =
  [ i.elapsed_s; i.internode_traffic_bps; i.round_trip_delay_ms;
    i.updates_per_s; i.update_period_per_node_s; i.actual_path_hops;
    i.minimum_path_hops; i.path_ratio; i.dropped_per_s; i.overhead_bps;
    i.delay_p50_ms; i.delay_p95_ms; i.delay_p99_ms;
    i.route_changes_per_period; i.next_hop_flips_per_period;
    i.link_flips_per_period ]

(* Every indicator is finite, except that a run flooding no update at all
   has an infinite update period per node. *)
let indicator_problems label (i : Measure.indicators) =
  let bad =
    List.filter
      (fun v -> not (Float.is_finite v))
      (indicator_values
         (if i.updates_per_s = 0. then { i with update_period_per_node_s = 0. }
          else i))
  in
  if bad = [] then [] else [ label ^ ": non-finite indicator" ]

let hash_strings parts = Digest.to_hex (Digest.string (String.concat "|" parts))

let hash_indicators is =
  hash_strings
    (List.concat_map
       (fun i -> List.map (Printf.sprintf "%h") (indicator_values i))
       is)

(* Offered traffic over the indicator window in 600-bit packets, the
   workload's mean packet size: delivered plus dropped. *)
let offered_packets (i : Measure.indicators) =
  ((i.internode_traffic_bps /. 600.) +. i.dropped_per_s) *. i.elapsed_s

(* ------------------------------------------------------------------ *)
(* Traced spans                                                        *)

type span_acc = { mutable total_s : float; mutable durs : float list }

(* Match begin/end pairs per track and sum durations per span name,
   keeping only spans that began at or after [since] (a wall time). *)
let span_table tr ~since =
  let tbl = Hashtbl.create 16 in
  for slot = 0 to Tracer.slots tr - 1 do
    let open_spans = Stack.create () in
    Tracer.iter_slot tr slot (fun ~ts ~kind ~name ~a:_ ~b:_ ->
        match kind with
        | Tracer.Begin -> Stack.push (name, ts) open_spans
        | Tracer.End -> (
          match Stack.top_opt open_spans with
          | Some (n, t0) when n = name ->
            ignore (Stack.pop open_spans);
            if t0 >= since then begin
              let key = Tracer.name tr name in
              let acc =
                match Hashtbl.find_opt tbl key with
                | Some acc -> acc
                | None ->
                  let acc = { total_s = 0.; durs = [] } in
                  Hashtbl.add tbl key acc;
                  acc
              in
              acc.total_s <- acc.total_s +. (ts -. t0);
              acc.durs <- (ts -. t0) :: acc.durs
            end
          | _ -> ())
        | Tracer.Instant | Tracer.Counter -> ())
  done;
  tbl

let span_total tbl name =
  match Hashtbl.find_opt tbl name with Some acc -> acc.total_s | None -> 0.

let span_durs tbl name =
  match Hashtbl.find_opt tbl name with Some acc -> acc.durs | None -> []

let new_tracer traced =
  if traced then Tracer.create ~capacity:(1 lsl 18) ~clock:Tracer.Wall ()
  else Tracer.null

(* ------------------------------------------------------------------ *)
(* Pass results                                                        *)

type result = {
  setup_s : float list;
  samples_ms : float array;  (** wall ms per routing period *)
  periods : int;  (** routing periods timed *)
  wall_s : float;  (** wall time of the timed periods *)
  points : int;  (** (metric, load scale) runs completed *)
  point_wall_s : float;  (** wall time of those runs, set-up excluded *)
  packets : float;  (** data packets offered in the timed window *)
  minor_words : float;
  major_words : float;
  hash : string;
  problems : string list;
  lists : (string * float list) list;  (** raw ledger samples *)
  ledger : (string * float) list;
}

let ledger_json kvs =
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.Float (if Float.is_finite v then v else 0.)))
       kvs)

let to_json ~workload ~seed ~domains ~traced r =
  let floats l = Json.List (List.map (fun v -> Json.Float v) l) in
  Json.Obj
    [ ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("domains", Json.Int domains);
      ("traced", Json.Bool traced);
      ("ocaml", Json.String Sys.ocaml_version);
      ("setup_s", floats r.setup_s);
      ("samples_ms", floats (Array.to_list r.samples_ms));
      ("periods", Json.Int r.periods);
      ("wall_s", Json.Float r.wall_s);
      ("points", Json.Int r.points);
      ("point_wall_s", Json.Float r.point_wall_s);
      ("packets", Json.Float r.packets);
      ("minor_words", Json.Float r.minor_words);
      ("major_words", Json.Float r.major_words);
      ("peak_heap_mb", Json.Float (peak_heap_mb ()));
      ("hash", Json.String r.hash);
      ("problems", Json.List (List.map (fun s -> Json.String s) r.problems));
      ("lists", Json.Obj (List.map (fun (k, l) -> (k, floats l)) r.lists));
      ("ledger", ledger_json r.ledger) ]

(* ------------------------------------------------------------------ *)
(* Flow-simulator workloads: table1-flow and million-flow              *)

let spf_counters (s : Spf_engine.stats) =
  [| s.refreshes; s.skipped; s.sources_recomputed; s.sources_repaired;
     s.sources_reused; s.nodes_resettled |]

(* [Load_assign.metrics_into] has no span of its own: time it directly on
   the simulator's flow store and on trees rebuilt from its flooded
   costs, with the minor words of each call. *)
let time_metrics_into sim ~reps =
  let g = Flow_sim.graph sim in
  let nl = Graph.link_count g in
  let engine = Spf_engine.create g in
  Spf_engine.refresh engine ~cost:(Flow_sim.link_cost sim);
  let tree_for = Spf_engine.tree engine in
  let flows = Flow_sim.flows sim in
  let nf = Flow_store.length flows in
  let assign = Load_assign.create g in
  let link_delay =
    Array.init nl (fun i ->
        let u = Flow_sim.link_utilization sim (Link.id_of_int i) in
        0.05 /. (1. -. Float.min u 0.95))
  in
  let link_pass = Array.make nl 0.99 in
  let delay_s = Array.make nf 0. and share = Array.make nf 0. in
  let hops = Array.make nf 0 in
  let call () =
    Load_assign.metrics_into assign ~flows ~tree_for ~link_delay ~link_pass
      ~delay_s ~share ~hops
  in
  call ();
  let ms = Array.make reps 0. and words = Array.make reps 0. in
  for r = 0 to reps - 1 do
    let t0 = now () in
    let w0 = Gc.minor_words () in
    call ();
    let w1 = Gc.minor_words () in
    ms.(r) <- (now () -. t0) *. 1000.;
    words.(r) <- w1 -. w0
  done;
  (median ms, median words)

let flow_pass ~traced ~warmup ~measured ~metrics_reps setup =
  let tracer = new_tracer traced in
  let t0 = now () in
  let sims = setup ~tracer in
  let t_ready = now () in
  let nsims = Array.length sims in
  for _ = 1 to warmup do
    Array.iter Flow_sim.tick sims
  done;
  let spf0 = Array.map (fun s -> spf_counters (Flow_sim.spf_stats s)) sims in
  let routes0 =
    Array.map (fun s -> let r, _, _ = Flow_sim.route_change_totals s in r) sims
  in
  let samples = Array.make measured 0. in
  let minor0, major0 = gc_words () in
  let since = now () in
  for k = 0 to measured - 1 do
    let t = now () in
    Array.iter Flow_sim.tick sims;
    samples.(k) <- (now () -. t) *. 1000. /. float_of_int nsims
  done;
  let t_end = now () in
  let minor1, major1 = gc_words () in
  let indicators =
    Array.to_list
      (Array.map (fun s -> Flow_sim.indicators s ~skip:warmup ()) sims)
  in
  let measured_stats =
    List.concat_map
      (fun s -> List.filteri (fun k _ -> k >= warmup) (Flow_sim.history s))
      (Array.to_list sims)
  in
  let problems =
    List.concat
      (List.mapi
         (fun k i -> indicator_problems (Printf.sprintf "sim %d" k) i)
         indicators)
    @ List.filter_map
        (fun (p : Flow_sim.period_stats) ->
          if p.delivered_bps <= (p.offered_bps *. (1. +. 1e-12)) +. 1e-9 then
            None
          else Some (Printf.sprintf "t=%.0fs: delivered > offered" p.time_s))
        measured_stats
  in
  let periods = measured * nsims in
  let ledger =
    if not traced then []
    else begin
      let tbl = span_table tracer ~since in
      let per_period name =
        span_total tbl name *. 1000. /. float_of_int periods
      in
      let period_ms = per_period "routing_period" in
      let refresh = per_period "spf_refresh" in
      let assign = per_period "flow_assign" in
      let flood = per_period "flood" in
      let spf = Array.make 6 0 in
      Array.iteri
        (fun k s ->
          let c = spf_counters (Flow_sim.spf_stats s) in
          Array.iteri (fun j v -> spf.(j) <- spf.(j) + v - spf0.(k).(j)) c)
        sims;
      let per_p v = float_of_int v /. float_of_int periods in
      let routes =
        Array.fold_left ( + ) 0
          (Array.mapi
             (fun k s ->
               let r, _, _ = Flow_sim.route_change_totals s in
               r - routes0.(k))
             sims)
      in
      let flows_assigned =
        Array.fold_left
          (fun acc s -> acc + (Flow_store.length (Flow_sim.flows s) * measured))
          0 sims
      in
      let into = Array.map (fun s -> time_metrics_into s ~reps:metrics_reps) sims in
      let mean f =
        Array.fold_left (fun acc x -> acc +. f x) 0. into /. float_of_int nsims
      in
      let sum_stats f =
        List.fold_left (fun acc p -> acc +. f p) 0. measured_stats
        /. float_of_int periods
      in
      [ ("flow_sim.period_ms", period_ms);
        ("flow_sim.route_changes_per_period", per_p routes);
        ("spf_engine.refresh_ms", refresh);
        ("spf_engine.recompute_ms", per_period "spf_recompute");
        ("spf_engine.repair_ms", per_period "spf_repair");
        ("spf_engine.sources_recomputed", per_p spf.(2));
        ("spf_engine.sources_repaired", per_p spf.(3));
        ("spf_engine.sources_reused", per_p spf.(4));
        ("spf_engine.nodes_resettled", per_p spf.(5));
        ( "spf_engine.skipped_share",
          if spf.(0) = 0 then 0.
          else float_of_int spf.(1) /. float_of_int spf.(0) );
        ("load_assign.assign_ms", assign);
        ( "load_assign.flows_per_s",
          float_of_int flows_assigned /. span_total tbl "flow_assign" );
        ("load_assign.metrics_into_ms", mean fst);
        ("load_assign.metrics_into_minor_words", mean snd);
        ( "metric.updates_per_period",
          sum_stats (fun p -> float_of_int p.Flow_sim.updates) );
        ("flooding.flood_ms", flood);
        ( "flooding.update_bits_per_period",
          sum_stats (fun p -> p.Flow_sim.update_bits) );
        ("tracer.dropped", float_of_int (Tracer.dropped tracer)) ]
    end
  in
  { setup_s = [ t_ready -. t0 ];
    samples_ms = samples;
    periods;
    wall_s = t_end -. since;
    points = nsims;
    point_wall_s = t_end -. t_ready;
    packets = List.fold_left (fun acc i -> acc +. offered_packets i) 0. indicators;
    minor_words = minor1 -. minor0;
    major_words = major1 -. major0;
    hash = hash_indicators indicators;
    problems;
    lists = [];
    ledger }

let table1_setup ~seed ~domains ~tracer =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create seed) g in
  Array.map
    (fun (kind, scale) ->
      Flow_sim.create ~domains ~tracer g kind (Traffic_matrix.scale tm scale))
    table1_pair

(* mesh200 as in [bench sim]; the flows, not the topology, come from the
   seed.  Their total is the gravity matrix's 2 Mb/s. *)
let million_setup ~seed ~domains ~tracer =
  let g = Generators.ring_chord (Rng.create 99) ~nodes:200 ~chords:120 in
  let tm = Traffic_matrix.gravity (Rng.create 3) ~nodes:200 ~total_bps:2e6 in
  let flows =
    Flow_store.heavy_tailed (Rng.create seed) ~nodes:200 ~flows:1_000_000
      ~total_bps:(Traffic_matrix.total_bps tm)
      ~size:(Flow_store.Pareto { alpha = 1.2 })
  in
  let sim = Flow_sim.create ~domains ~tracer g Metric.Hn_spf tm in
  Flow_sim.set_flows sim flows;
  Flow_sim.set_adaptive_sources sim true;
  [| sim |]

(* ------------------------------------------------------------------ *)
(* des-hopflood: the packet DES with hop-by-hop flooding               *)

let span_row tele name =
  match
    List.find_opt
      (fun (r : Span.row) -> r.name = name)
      (Span.report (Telemetry.spans tele))
  with
  | Some r -> r.total_s
  | None -> 0.

(* Under hop-by-hop flooding every fresh update receipt (and every
   origination) rebuilds that node's table from scratch, inside event
   handlers no span covers.  Time the same calls directly, over every root
   on the network's current costs: ms and minor words per install. *)
let time_table_install net ~reps =
  let g = Network.graph net in
  let cost = Metric.cost_fn (Network.metric net) in
  let n = Graph.node_count g in
  let install root =
    ignore (Routing_table.of_tree (Dijkstra.compute g ~cost (Node.of_int root)))
  in
  install 0;
  let ms = Array.make reps 0. and words = Array.make reps 0. in
  for r = 0 to reps - 1 do
    let t0 = now () in
    let w0 = Gc.minor_words () in
    for root = 0 to n - 1 do
      install root
    done;
    let w1 = Gc.minor_words () in
    ms.(r) <- (now () -. t0) *. 1000. /. float_of_int n;
    words.(r) <- (w1 -. w0) /. float_of_int n
  done;
  (median ms, median words)

let des_pass ~traced ~seed ~domains =
  let tracer = new_tracer traced in
  let t0 = now () in
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create seed) g in
  let teles =
    Array.map
      (fun _ ->
        if traced then Some (Telemetry.create ~clock:Span.wall ~tracer ())
        else None)
      table1_pair
  in
  let nets =
    Array.mapi
      (fun k (kind, scale) ->
        let config =
          { (Network.default_config kind) with
            Network.seed;
            record_series = false;
            instant_flooding = false;
            domains;
            telemetry = teles.(k) }
        in
        Network.create ~config g (Traffic_matrix.scale tm scale))
      table1_pair
  in
  let t_ready = now () in
  for _ = 1 to des_warmup do
    Array.iter (fun n -> Network.run n ~duration_s:period_s) nets
  done;
  Array.iter Network.reset_measurements nets;
  let nnets = Array.length nets in
  let generated0 = Array.map Network.generated_packets nets in
  let events0 = Array.map (fun n -> Engine.events_processed (Network.engine n)) nets in
  let receipts n = Welford.count (Network.flood_latency_stats n) in
  let receipts0 = Array.map receipts nets in
  let spans0 name =
    Array.map (function Some t -> span_row t name | None -> 0.) teles
  in
  let rp0 = spans0 "routing_period" and sr0 = spans0 "spf_refresh" in
  let fl0 = spans0 "flood" in
  let pending = ref [] in
  let samples = Array.make des_periods 0. in
  let minor0, major0 = gc_words () in
  let since = now () in
  for k = 0 to des_periods - 1 do
    let t = now () in
    Array.iter (fun n -> Network.run n ~duration_s:period_s) nets;
    samples.(k) <- (now () -. t) *. 1000. /. float_of_int nnets;
    Array.iter
      (fun n ->
        pending := float_of_int (Engine.pending (Network.engine n)) :: !pending)
      nets
  done;
  let t_end = now () in
  let minor1, major1 = gc_words () in
  let indicators = Array.to_list (Array.map Network.indicators nets) in
  let sum f = Array.fold_left (fun acc n -> acc + f n) 0 nets in
  let generated =
    Array.fold_left ( + ) 0
      (Array.mapi (fun k n -> Network.generated_packets n - generated0.(k)) nets)
  in
  let problems =
    List.concat
      (List.mapi
         (fun k i -> indicator_problems (Printf.sprintf "net %d" k) i)
         indicators)
    @ Array.to_list
        (Array.mapi
           (fun k n ->
             let d = Network.delivered_packets n
             and x = Network.dropped_packets n
             and gen = Network.generated_packets n in
             if d > 0 && gen >= d + x then ""
             else Printf.sprintf "net %d: delivered %d + dropped %d vs generated %d" k d x gen)
           nets)
    |> List.filter (fun s -> s <> "")
  in
  let counts =
    Array.to_list
      (Array.map
         (fun n ->
           Printf.sprintf "%d/%d/%d" (Network.generated_packets n)
             (Network.delivered_packets n) (Network.dropped_packets n))
         nets)
  in
  let periods = des_periods * nnets in
  let ledger =
    if not traced then []
    else begin
      let per_period v = v *. 1000. /. float_of_int periods in
      let delta name base =
        Array.fold_left ( +. ) 0.
          (Array.mapi
             (fun k t ->
               match t with Some t -> span_row t name -. base.(k) | None -> 0.)
             teles)
      in
      let period_ms = (t_end -. since) *. 1000. /. float_of_int periods in
      let refresh = per_period (delta "spf_refresh" sr0) in
      let flood = per_period (delta "flood" fl0) in
      let events =
        sum (fun n -> Engine.events_processed (Network.engine n))
        - Array.fold_left ( + ) 0 events0
      in
      let updates =
        List.fold_left
          (fun acc (i : Measure.indicators) ->
            acc +. Float.round (i.updates_per_s *. i.elapsed_s))
          0. indicators
      in
      let bits =
        List.fold_left
          (fun acc (i : Measure.indicators) -> acc +. (i.overhead_bps *. i.elapsed_s))
          0. indicators
      in
      let tbl = span_table tracer ~since in
      let fp = float_of_int periods in
      let installs =
        float_of_int (sum receipts - Array.fold_left ( + ) 0 receipts0)
        +. updates
      in
      let install_ms, install_words =
        let t = Array.map (time_table_install ~reps:5) nets in
        let mean f =
          Array.fold_left (fun acc x -> acc +. f x) 0. t /. float_of_int nnets
        in
        (mean fst, mean snd)
      in
      [ ("network.period_ms", period_ms);
        ("network.routing_period_ms", per_period (delta "routing_period" rp0));
        ("network.spf_refresh_ms", refresh);
        ("network.flood_ms", flood);
        ("network.floods", updates /. fp);
        ("network.table_installs_per_period", installs /. fp);
        ("network.table_install_ms", install_ms *. installs /. fp);
        ("network.table_install_minor_words", install_words);
        ( "network.drop_share",
          float_of_int (sum Network.dropped_packets) /. float_of_int generated );
        ("engine.events_per_period", float_of_int events /. fp);
        ("engine.events_per_s", float_of_int events /. (t_end -. since));
        ("spf_engine.recompute_ms", per_period (span_total tbl "spf_recompute"));
        ("spf_engine.repair_ms", per_period (span_total tbl "spf_repair"));
        ( "spf_engine.sources_recomputed",
          float_of_int
            (sum (fun n -> (Network.spf_stats n).Spf_engine.sources_recomputed))
          /. fp );
        ("metric.updates_per_period", updates /. fp);
        ("flooding.flood_ms", flood);
        ("flooding.update_bits_per_period", bits /. fp);
        ("tracer.dropped", float_of_int (Tracer.dropped tracer)) ]
    end
  in
  { setup_s = [ t_ready -. t0 ];
    samples_ms = samples;
    periods;
    wall_s = t_end -. since;
    points = nnets;
    point_wall_s = t_end -. t_ready;
    packets = float_of_int generated;
    minor_words = minor1 -. minor0;
    major_words = major1 -. major0;
    hash = hash_strings (hash_indicators indicators :: counts);
    problems;
    lists = [ ("pending", !pending) ];
    ledger }

(* ------------------------------------------------------------------ *)
(* critical-load-sweep: the ramp through Sweep_engine                  *)

(* Shaped like scenarios/critical_load.json; the two seeds come from the
   workload seed. *)
let ramp_spec ~seed =
  let lo = 0.5 and hi = 2.5 and steps = 6 in
  { Sweep_spec.scenarios = [ Sweep_spec.Builtin "arpanet" ];
    metrics = [ Metric.D_spf; Metric.Hn_spf ];
    scales =
      List.init steps (fun i ->
          lo +. ((hi -. lo) *. float_of_int i /. float_of_int (steps - 1)));
    seeds = [ seed; seed + 500 ];
    periods = 12;
    warmup = 2;
    critical_load =
      Some { Sweep_spec.ramp_from = lo; ramp_to = hi; ramp_steps = steps } }

let sweep_pass ~traced ~seed ~domains =
  let spec = ramp_spec ~seed in
  let setups = ref [] and samples = ref [] and hashes = ref [] in
  let points = ref 0 and point_wall = ref 0. and packets = ref 0. in
  let problems = ref [] in
  let point_ms = ref [] and assemble = ref [] and busy = ref [] in
  let span_sums = Hashtbl.create 8 in
  let add_span name v =
    Hashtbl.replace span_sums name
      (v +. Option.value ~default:0. (Hashtbl.find_opt span_sums name))
  in
  let last_indicators = ref [] and dropped = ref 0 in
  let minor0, major0 = gc_words () in
  for _ = 1 to sweep_runs do
    let tracer = new_tracer traced in
    let t0 = now () in
    let prep = Sweep_engine.prepare spec in
    let t1 = now () in
    let report = Sweep_engine.run_prepared ~domains ~tracer prep in
    let t2 = now () in
    let bytes =
      Json.to_string_pretty report.Sweep_engine.json
      ^ Sweep_engine.csv report
      ^ Sweep_engine.summary_csv report
    in
    let t3 = now () in
    let n = Array.length report.Sweep_engine.outcomes in
    setups := (t1 -. t0) :: !setups;
    samples :=
      ((t3 -. t1) *. 1000. /. float_of_int (n * spec.Sweep_spec.periods))
      :: !samples;
    hashes := Digest.to_hex (Digest.string bytes) :: !hashes;
    points := !points + n;
    point_wall := !point_wall +. (t3 -. t1);
    let indicators =
      Array.to_list
        (Array.map (fun o -> o.Sweep_engine.indicators) report.Sweep_engine.outcomes)
    in
    last_indicators := indicators;
    packets :=
      List.fold_left (fun acc i -> acc +. offered_packets i) !packets indicators;
    problems :=
      List.concat_map (indicator_problems "sweep point") indicators @ !problems;
    if List.length report.Sweep_engine.knees <> List.length spec.metrics then
      problems := "missing critical-load knee" :: !problems;
    if traced then begin
      let tbl = span_table tracer ~since:t1 in
      point_ms :=
        List.map (fun d -> d *. 1000.) (span_durs tbl "sweep_point") @ !point_ms;
      busy :=
        (span_total tbl "sweep_point" /. (float_of_int domains *. (t2 -. t1)))
        :: !busy;
      assemble := ((t3 -. t2) *. 1000.) :: !assemble;
      List.iter
        (fun name -> add_span name (span_total tbl name))
        [ "routing_period"; "spf_refresh"; "flow_assign"; "flood";
          "spf_recompute"; "spf_repair" ];
      dropped := !dropped + Tracer.dropped tracer
    end
  done;
  let minor1, major1 = gc_words () in
  let distinct = List.sort_uniq compare !hashes in
  if List.length distinct <> 1 then
    problems := "sweep reports differ between runs" :: !problems;
  let periods = !points * spec.Sweep_spec.periods in
  let ledger =
    if not traced then []
    else begin
      let fp = float_of_int periods in
      let per name =
        Option.value ~default:0. (Hashtbl.find_opt span_sums name) *. 1000. /. fp
      in
      (* Mean over the points of a per-period indicator. *)
      let mean f =
        List.fold_left (fun acc i -> acc +. f i) 0. !last_indicators
        /. float_of_int (List.length !last_indicators)
      in
      [ ("flow_sim.period_ms", per "routing_period");
        ( "flow_sim.route_changes_per_period",
          mean (fun (i : Measure.indicators) -> i.route_changes_per_period) );
        ("spf_engine.refresh_ms", per "spf_refresh");
        ("spf_engine.recompute_ms", per "spf_recompute");
        ("spf_engine.repair_ms", per "spf_repair");
        ("load_assign.assign_ms", per "flow_assign");
        ( "metric.updates_per_period",
          mean (fun (i : Measure.indicators) -> i.updates_per_s *. period_s) );
        ("flooding.flood_ms", per "flood");
        ( "flooding.update_bits_per_period",
          mean (fun (i : Measure.indicators) -> i.overhead_bps *. period_s) );
        ("sweep_engine.prepare_s", median (Array.of_list !setups));
        ("sweep_engine.assemble_ms", median (Array.of_list !assemble));
        ("domain_pool.busy_share", median (Array.of_list !busy));
        ("tracer.dropped", float_of_int !dropped) ]
    end
  in
  { setup_s = List.rev !setups;
    samples_ms = Array.of_list (List.rev !samples);
    periods;
    wall_s = !point_wall;
    points = !points;
    point_wall_s = !point_wall;
    packets = !packets;
    minor_words = minor1 -. minor0;
    major_words = major1 -. major0;
    hash = (match distinct with [ h ] -> h | _ -> "mismatch");
    problems = !problems;
    lists = [ ("point_ms", !point_ms) ];
    ledger }

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and domains = ref 1 in
  let trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--domains", Arg.Set_int domains, "N domain-pool size");
      ("--trace", Arg.Set_int trace, "0|1 attach wall-clock recorders") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pass.exe --workload NAME --seed N --domains N --trace 0|1";
  let traced = !trace = 1 and seed = !seed and domains = !domains in
  let result =
    match !workload with
    | "table1-flow" ->
      flow_pass ~traced ~warmup:table1_warmup ~measured:table1_periods
        ~metrics_reps:50 (table1_setup ~seed ~domains)
    | "million-flow" ->
      flow_pass ~traced ~warmup:million_warmup ~measured:million_periods
        ~metrics_reps:5 (million_setup ~seed ~domains)
    | "des-hopflood" -> des_pass ~traced ~seed ~domains
    | "critical-load-sweep" -> sweep_pass ~traced ~seed ~domains
    | w ->
      prerr_endline ("pass.exe: unknown workload " ^ w);
      exit 2
  in
  print_endline
    (Json.to_string (to_json ~workload:!workload ~seed ~domains ~traced result))
