(* Tests for the sweep subsystem and the aggregated flow assignment.

   The load-bearing contracts:
   + Load_assign.assign distributes exactly the same load as the
     historical per-flow tree climb (qcheck, random topologies and
     traffic; first hops exactly equal, offered loads equal to rounding);
   + Domain_pool.parallel_for runs every index exactly once under any
     (domains, grain) — the steal protocol cannot drop or duplicate work
     (qcheck, uneven bodies to force stealing);
   + Sweep_engine reports are byte-identical under any domain count,
     shard layout, or resume history (work-stealing handout, hash-keyed
     merge, and registry regeneration are all order-independent).

   Plus the S1xx spec lint: every fixture trips exactly its code, the
   --shard argument grammar (S107), and the shipped example spec is
   clean. *)

module Node = Routing_topology.Node
module Link = Routing_topology.Link
module Graph = Routing_topology.Graph
module Generators = Routing_topology.Generators
module Rng = Routing_stats.Rng
module Metric = Routing_metric.Metric
module Spf_engine = Routing_spf.Spf_engine
module Spf_tree = Routing_spf.Spf_tree
module Load_assign = Routing_sim.Load_assign
module Flow_store = Routing_sim.Flow_store
module Domain_pool = Routing_metric.Domain_pool
module Sweep_spec = Routing_sweep.Sweep_spec
module Sweep_engine = Routing_sweep.Sweep_engine
module Sweep_check = Routing_check.Sweep_check
module Diagnostic = Routing_check.Diagnostic
module Obs_json = Routing_obs.Json
module Obs_metrics = Routing_obs.Metrics
module Serial = Routing_topology.Serial
module Traffic_matrix = Routing_topology.Traffic_matrix
module Script = Routing_sim.Script
module Flow_sim = Routing_sim.Flow_sim
module Measure = Routing_sim.Measure

let scenario name = Filename.concat ".." (Filename.concat "scenarios" name)

let fixture name = Filename.concat "fixtures/bad" name

(* --- aggregated assignment vs the per-flow baseline ---------------- *)

(* A random connected graph, random admissible link costs, and a random
   flow set (duplicates and self-flows included — both must be handled). *)
let assignment_case =
  QCheck.make ~print:(fun (seed, nodes, chords, nf) ->
      Printf.sprintf "seed=%d nodes=%d chords=%d flows=%d" seed nodes chords nf)
    QCheck.Gen.(
      quad (int_bound 1_000_000) (int_range 4 40) (int_range 0 30)
        (int_range 0 120))

let close ~tol a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let run_assignment_case (seed, nodes, chords, nf) =
  let rng = Rng.create seed in
  let g = Generators.ring_chord (Rng.copy rng) ~nodes ~chords in
  let nl = Graph.link_count g in
  let costs = Array.init nl (fun _ -> 1 + Rng.int rng 60) in
  let engine = Spf_engine.create g in
  Spf_engine.refresh engine ~cost:(fun lid -> costs.(Link.id_to_int lid));
  let tree_for = Spf_engine.tree engine in
  let flows = Flow_store.create ~nodes in
  for _ = 1 to nf do
    Flow_store.add flows ~src:(Node.of_int (Rng.int rng nodes))
      ~dst:(Node.of_int (Rng.int rng nodes))
      ~demand_bps:(100. +. Rng.float rng 10_000.)
  done;
  let sending = Array.sub (Flow_store.demand_col flows) 0 nf in
  let t = Load_assign.create g in
  let offered = Array.make nl 0. in
  let first_hop = Array.make nf (-7) in
  Load_assign.assign t ~flows ~tree_for ~sending ~offered ~first_hop;
  let t' = Load_assign.create g in
  let offered' = Array.make nl 0. in
  let first_hop' = Array.make nf (-7) in
  Load_assign.assign_baseline t' ~flows ~tree_for ~sending ~offered:offered'
    ~first_hop:first_hop';
  Array.iteri
    (fun fi fh ->
      if fh <> first_hop'.(fi) then
        QCheck.Test.fail_reportf "flow %d: first_hop %d (aggregated) vs %d"
          fi fh first_hop'.(fi))
    first_hop;
  Array.iteri
    (fun l o ->
      if not (close ~tol:1e-9 o offered'.(l)) then
        QCheck.Test.fail_reportf "link %d: offered %g (aggregated) vs %g" l o
          offered'.(l))
    offered;
  true

(* Paths of 256 hops and more: the composite distance's hop field is
   wide enough that the hop counts, the aggregated assignment and the
   per-flow metrics stay exact on a 600-node ring with unit costs. *)
let test_assignment_long_paths () =
  let nodes = 600 in
  let g = Generators.ring nodes in
  let nl = Graph.link_count g in
  let engine = Spf_engine.create g in
  Spf_engine.refresh engine ~cost:(fun _ -> 1);
  let tree_for = Spf_engine.tree engine in
  let tree = tree_for (Node.of_int 0) in
  List.iter
    (fun d ->
      Alcotest.(check int)
        (Printf.sprintf "hops to node %d" d)
        (min d (nodes - d))
        (Spf_tree.hops tree (Node.of_int d)))
    [ 10; 255; 256; 280; 300; 301 ];
  let flows = Flow_store.create ~nodes in
  List.iter
    (fun d ->
      Flow_store.add flows ~src:(Node.of_int 0) ~dst:(Node.of_int d)
        ~demand_bps:1000.)
    [ 280; 10 ];
  let sending = Array.sub (Flow_store.demand_col flows) 0 2 in
  let assign f =
    let offered = Array.make nl 0. and first_hop = Array.make 2 (-7) in
    f (Load_assign.create g) ~flows ~tree_for ~sending ~offered ~first_hop;
    (offered, first_hop)
  in
  let offered, first_hop = assign (Load_assign.assign ?pool:None) in
  let offered', first_hop' = assign Load_assign.assign_baseline in
  Alcotest.(check (array (float 0.))) "assign = assign_baseline" offered'
    offered;
  Alcotest.(check (array int)) "first hops" first_hop' first_hop;
  Alcotest.(check int) "links loaded" 280
    (Array.fold_left (fun n o -> if o > 0. then n + 1 else n) 0 offered);
  let delay_s = Array.make 2 0. and share = Array.make 2 0.
  and hops = Array.make 2 0 in
  Load_assign.metrics_into (Load_assign.create g) ~flows ~tree_for
    ~link_delay:(Array.make nl 0.001) ~link_pass:(Array.make nl 1.) ~delay_s
    ~share ~hops;
  Alcotest.(check (array int)) "metrics_into hops" [| 280; 10 |] hops;
  Alcotest.(check (float 1e-12)) "280-hop path delay" 0.28 delay_s.(0)

let prop_assignment_matches_baseline =
  QCheck.Test.make ~count:60 ~name:"aggregated assignment == per-flow baseline"
    assignment_case run_assignment_case

(* Parallel assignment must be *bit*-identical to sequential at every
   domain count: the per-stripe contribution streams are replayed in
   stripe order, reproducing the sequential float-add order exactly.
   The striped metrics pass writes only per-flow slots, so it must match
   too.  Compared through Int64 bits — no tolerance. *)
let bits = Int64.bits_of_float

let run_parallel_case (seed, nodes, chords, nf) =
  let rng = Rng.create seed in
  let g = Generators.ring_chord (Rng.copy rng) ~nodes ~chords in
  let nl = Graph.link_count g in
  let costs = Array.init nl (fun _ -> 1 + Rng.int rng 60) in
  let engine = Spf_engine.create g in
  Spf_engine.refresh engine ~cost:(fun lid -> costs.(Link.id_to_int lid));
  let tree_for = Spf_engine.tree engine in
  let flows = Flow_store.create ~nodes in
  for _ = 1 to nf do
    Flow_store.add flows ~src:(Node.of_int (Rng.int rng nodes))
      ~dst:(Node.of_int (Rng.int rng nodes))
      ~demand_bps:(100. +. Rng.float rng 10_000.)
  done;
  let sending = Array.sub (Flow_store.demand_col flows) 0 nf in
  let t = Load_assign.create g in
  let offered_seq = Array.make nl 0. in
  let fh_seq = Array.make nf (-7) in
  Load_assign.assign t ~flows ~tree_for ~sending ~offered:offered_seq
    ~first_hop:fh_seq;
  (* The metrics pass stripes the same sources; random per-link tables. *)
  let link_delay = Array.init nl (fun _ -> Rng.float rng 0.5) in
  let link_pass = Array.init nl (fun _ -> 1. -. Rng.float rng 0.3) in
  let metrics ?pool () =
    let delay_s = Array.make nf nan
    and share = Array.make nf nan
    and hops = Array.make nf (-7) in
    Load_assign.metrics_into ?pool t ~flows ~tree_for ~link_delay ~link_pass
      ~delay_s ~share ~hops;
    (delay_s, share, hops)
  in
  let delay_seq, share_seq, hops_seq = metrics () in
  List.iter
    (fun domains ->
      let pool = Domain_pool.create domains in
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () ->
          let offered = Array.make nl 0. in
          let fh = Array.make nf (-7) in
          Load_assign.assign ~pool t ~flows ~tree_for ~sending ~offered
            ~first_hop:fh;
          Array.iteri
            (fun l o ->
              if not (Int64.equal (bits o) (bits offered_seq.(l))) then
                QCheck.Test.fail_reportf
                  "link %d: parallel %h <> sequential %h at %d domains" l o
                  offered_seq.(l) domains)
            offered;
          Array.iteri
            (fun fi h ->
              if h <> fh_seq.(fi) then
                QCheck.Test.fail_reportf
                  "flow %d: parallel first_hop %d <> sequential %d at %d \
                   domains"
                  fi h fh_seq.(fi) domains)
            fh;
          let delay_s, share, hops = metrics ~pool () in
          for fi = 0 to nf - 1 do
            if
              not
                (Int64.equal (bits delay_s.(fi)) (bits delay_seq.(fi))
                && Int64.equal (bits share.(fi)) (bits share_seq.(fi))
                && hops.(fi) = hops_seq.(fi))
            then
              QCheck.Test.fail_reportf
                "flow %d: parallel metrics (%h, %h, %d) <> sequential (%h, \
                 %h, %d) at %d domains"
                fi delay_s.(fi) share.(fi) hops.(fi) delay_seq.(fi)
                share_seq.(fi) hops_seq.(fi) domains
          done))
    [ 1; 2; 3; 4 ];
  true

let prop_parallel_bit_identical =
  QCheck.Test.make ~count:20
    ~name:"parallel assignment bit-identical to sequential (1-4 domains)"
    assignment_case run_parallel_case

(* --- flow store ---------------------------------------------------- *)

let test_store_matrix_round_trip () =
  let tm = Routing_topology.Traffic_matrix.create ~nodes:9 in
  let set s d v =
    Routing_topology.Traffic_matrix.set tm ~src:(Node.of_int s)
      ~dst:(Node.of_int d) v
  in
  set 0 3 1000.;
  set 3 0 250.;
  set 8 1 97.5;
  set 4 4 40.;
  (* self-demand: refused by the matrix, so it never reaches the store *)
  let store = Flow_store.of_matrix tm in
  Alcotest.(check int) "one flow per non-zero off-diagonal cell" 3
    (Flow_store.length store);
  Alcotest.(check (float 1e-9)) "total preserved" 1347.5
    (Flow_store.total_demand_bps store);
  let back = Flow_store.to_matrix store in
  for s = 0 to 8 do
    for d = 0 to 8 do
      if s <> d then
        Alcotest.(check (float 0.))
          (Printf.sprintf "cell %d->%d round-trips" s d)
          (Routing_topology.Traffic_matrix.get tm ~src:(Node.of_int s)
             ~dst:(Node.of_int d))
          (Routing_topology.Traffic_matrix.get back ~src:(Node.of_int s)
             ~dst:(Node.of_int d))
    done
  done;
  (* aggregate folds duplicate (src, dst) pairs, first occurrence order. *)
  let dup = Flow_store.create ~nodes:4 in
  let addf s d v =
    Flow_store.add dup ~src:(Node.of_int s) ~dst:(Node.of_int d) ~demand_bps:v
  in
  addf 0 1 10.;
  addf 2 3 5.;
  addf 0 1 7.;
  let agg = Flow_store.aggregate dup in
  Alcotest.(check int) "aggregate dedups pairs" 2 (Flow_store.length agg);
  Alcotest.(check (float 0.)) "aggregate sums demand" 17.
    (Flow_store.demand_col agg).(0);
  Alcotest.(check (float 1e-9)) "aggregate preserves total"
    (Flow_store.total_demand_bps dup)
    (Flow_store.total_demand_bps agg)

(* Every column up to the store's length, and its version: what a
   simulator reads of a store. *)
let store_digest s =
  let n = Flow_store.length s in
  let buf = Buffer.create (n * 40) in
  Printf.bprintf buf "%d %d\n" n (Flow_store.version s);
  let src = Flow_store.src_col s and dst = Flow_store.dst_col s in
  let demand = Flow_store.demand_col s
  and throttle = Flow_store.throttle_col s in
  for i = 0 to n - 1 do
    Printf.bprintf buf "%d %d %h %h\n" src.(i) dst.(i) demand.(i)
      throttle.(i)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_heavy_tailed_determinism () =
  let draw seed size =
    Flow_store.heavy_tailed (Rng.create seed) ~nodes:50 ~flows:10_000
      ~total_bps:1e9 ~size
  in
  List.iter
    (fun (size, digest) ->
      let a = draw 42 size and b = draw 42 size in
      let n = Flow_store.length a in
      Alcotest.(check int) "requested flow count" 10_000 n;
      (* Pinned from the store the generator built when it still
         appended flow by flow into doubling columns. *)
      Alcotest.(check string) "seed 42's store" digest (store_digest a);
      let col f = Array.sub (f a) 0 n and col' f = Array.sub (f b) 0 n in
      Alcotest.(check (array int)) "same seed, same sources"
        (col Flow_store.src_col) (col' Flow_store.src_col);
      Alcotest.(check (array int)) "same seed, same destinations"
        (col Flow_store.dst_col) (col' Flow_store.dst_col);
      Array.iteri
        (fun i d ->
          if not (Int64.equal (bits d) (bits (Flow_store.demand_col b).(i)))
          then
            Alcotest.failf "flow %d: demand %h vs %h with the same seed" i d
              (Flow_store.demand_col b).(i))
        (col Flow_store.demand_col);
      Alcotest.(check bool) "total scaled to target" true
        (close ~tol:1e-9 1e9 (Flow_store.total_demand_bps a));
      let src = Flow_store.src_col a and dst = Flow_store.dst_col a in
      for i = 0 to n - 1 do
        if src.(i) = dst.(i) then Alcotest.failf "flow %d is a self-flow" i;
        if src.(i) < 0 || src.(i) >= 50 || dst.(i) < 0 || dst.(i) >= 50 then
          Alcotest.failf "flow %d endpoints out of range" i
      done;
      (* A different seed must actually change the draw. *)
      let c = draw 43 size in
      Alcotest.(check bool) "different seed, different flows" false
        (col Flow_store.demand_col
        = Array.sub (Flow_store.demand_col c) 0 (Flow_store.length c)
        && col Flow_store.src_col
           = Array.sub (Flow_store.src_col c) 0 (Flow_store.length c)))
    [ (Flow_store.Pareto { alpha = 1.3 }, "a078d16db25d0e51814e28c7942e7b20");
      ( Flow_store.Lognormal { sigma = 2. },
        "f3b6b51f0d1b11f7859ff36d58dd6ee4" ) ]

(* Repeated [assign] calls over the same scratch must not leak state
   between rounds (the buckets/acc arrays are reused, never reallocated). *)
let test_assignment_scratch_reuse () =
  let g = Generators.ring_chord (Rng.create 5) ~nodes:12 ~chords:6 in
  let nl = Graph.link_count g in
  let engine = Spf_engine.create g in
  Spf_engine.refresh engine ~cost:(fun lid -> 1 + (Link.id_to_int lid mod 9));
  let tree_for = Spf_engine.tree engine in
  let flows = Flow_store.create ~nodes:12 in
  for i = 0 to 29 do
    Flow_store.add flows ~src:(Node.of_int (i mod 12))
      ~dst:(Node.of_int ((i * 7 + 3) mod 12))
      ~demand_bps:(float_of_int (1000 * (i + 1)))
  done;
  let sending = Array.sub (Flow_store.demand_col flows) 0 30 in
  let t = Load_assign.create g in
  let round () =
    let offered = Array.make nl 0. in
    let first_hop = Array.make (Flow_store.length flows) (-7) in
    Load_assign.assign t ~flows ~tree_for ~sending ~offered ~first_hop;
    (offered, first_hop)
  in
  let o1, f1 = round () in
  let o2, f2 = round () in
  Alcotest.(check (array (float 0.))) "offered stable across rounds" o1 o2;
  Alcotest.(check (array int)) "first hops stable across rounds" f1 f2

(* --- work-stealing handout ----------------------------------------- *)

(* Every index exactly once, any pool geometry.  Bodies spin an amount
   that varies wildly with the index so the initial equal slices go out
   of balance and stealing actually happens; each index writes only its
   own slot, so a duplicate run would show up as a count of 2 (and as a
   data race under the TSan job, which runs this suite).  Each
   participant's [init] gets its own slot in [0, domains), at most once
   per loop. *)
let loop_case =
  QCheck.make ~print:(fun (n, domains, grain) ->
      Printf.sprintf "n=%d domains=%d grain=%d" n domains grain)
    QCheck.Gen.(triple (int_bound 200) (int_range 1 5) (int_range 1 7))

let run_loop_case (n, domains, grain) =
  let counts = Array.make (max n 1) 0 in
  let spun = Array.make (max n 1) 0 in
  let inits = Array.init domains (fun _ -> Atomic.make 0) in
  let pool = Domain_pool.create domains in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Domain_pool.parallel_for ~grain pool
        ~init:(fun slot -> Atomic.incr inits.(slot))
        n
        (fun () i ->
          let spin = if i land 7 = 0 then 2000 else 10 in
          let acc = ref 0 in
          for k = 1 to spin do
            acc := !acc + ((i + k) land 15)
          done;
          spun.(i) <- !acc;
          counts.(i) <- counts.(i) + 1));
  Array.iteri
    (fun i c ->
      if i < n && c <> 1 then
        QCheck.Test.fail_reportf "index %d ran %d times (n=%d)" i c n)
    counts;
  Array.iteri
    (fun slot c ->
      if Atomic.get c > 1 then
        QCheck.Test.fail_reportf "slot %d initialized %d times" slot
          (Atomic.get c))
    inits;
  true

let prop_parallel_for_exactly_once =
  QCheck.Test.make ~count:80
    ~name:"parallel_for runs every index exactly once" loop_case
    run_loop_case

(* --- sweep engine -------------------------------------------------- *)

let small_spec =
  { Sweep_spec.scenarios =
      [ Sweep_spec.Builtin "arpanet"; Sweep_spec.File (scenario "two_region.scn") ];
    metrics = [ Metric.D_spf; Metric.Hn_spf ];
    scales = [ 0.8; 1.1 ];
    seeds = [ 1 ];
    periods = 5;
    warmup = 1;
    critical_load = None }

let test_points_enumeration () =
  let pts = Sweep_engine.points small_spec in
  Alcotest.(check int) "grid size" (2 * 2 * 2 * 1) (List.length pts);
  List.iteri
    (fun i p -> Alcotest.(check int) "indexed in order" i p.Sweep_engine.index)
    pts;
  match pts with
  | first :: _ ->
    Alcotest.(check string) "scenario outermost" "arpanet"
      first.Sweep_engine.scenario
  | [] -> Alcotest.fail "empty grid"

let test_report_domain_independent () =
  let r1 = Sweep_engine.run ~domains:1 small_spec in
  let r2 = Sweep_engine.run ~domains:2 small_spec in
  Alcotest.(check string) "reports byte-identical at 1 vs 2 domains"
    (Obs_json.to_string r1.Sweep_engine.json)
    (Obs_json.to_string r2.Sweep_engine.json);
  Alcotest.(check string) "CSV byte-identical at 1 vs 2 domains"
    (Sweep_engine.csv r1) (Sweep_engine.csv r2);
  Alcotest.(check string) "summary CSV byte-identical at 1 vs 2 domains"
    (Sweep_engine.summary_csv r1) (Sweep_engine.summary_csv r2);
  Alcotest.(check int) "rankings cover every (scenario, metric) group" 4
    (List.length r1.Sweep_engine.rankings);
  Alcotest.(check int) "no ramp, no knees" 0
    (List.length r1.Sweep_engine.knees);
  let lines = String.split_on_char '\n' (String.trim (Sweep_engine.csv r1)) in
  Alcotest.(check int) "CSV: header plus one row per point"
    (1 + Array.length r1.Sweep_engine.outcomes)
    (List.length lines)

let test_report_round_trips () =
  let r = Sweep_engine.run ~domains:1 small_spec in
  match Obs_json.of_string (Obs_json.to_string r.Sweep_engine.json) with
  | Ok round ->
    Alcotest.(check bool) "report JSON round-trips" true
      (Obs_json.equal round r.Sweep_engine.json)
  | Error e -> Alcotest.failf "report does not re-parse: %s" e

(* --- critical-load ramp -------------------------------------------- *)

let test_critical_load_parse () =
  (match
     Sweep_spec.parse
       {|{"scenarios": ["arpanet"], "critical_load": {"from": 0.5, "to": 2.0, "steps": 4}}|}
   with
  | Error issue -> Alcotest.failf "ramp spec rejected: %s" issue.message
  | Ok spec ->
    Alcotest.(check (list (float 1e-9))) "ramp expands to the scale axis"
      [ 0.5; 1.0; 1.5; 2.0 ] spec.Sweep_spec.scales;
    (match spec.Sweep_spec.critical_load with
    | Some r ->
      Alcotest.(check (float 0.)) "from recorded" 0.5 r.Sweep_spec.ramp_from;
      Alcotest.(check (float 0.)) "to recorded" 2.0 r.Sweep_spec.ramp_to;
      Alcotest.(check int) "steps recorded" 4 r.Sweep_spec.ramp_steps
    | None -> Alcotest.fail "critical_load not recorded on the spec");
    Alcotest.(check (list string)) "well-formed ramp lints clean" []
      (List.map
         (fun (i : Sweep_spec.issue) -> i.code)
         (Sweep_spec.lint spec)));
  match
    Sweep_spec.parse
      {|{"scenarios": ["arpanet"], "scales": [1.0], "critical_load": {"from": 0.5, "to": 2.0}}|}
  with
  | Ok _ -> Alcotest.fail "scales + critical_load unexpectedly accepted"
  | Error issue -> Alcotest.(check string) "mutual exclusion" "S100" issue.code

(* A quick ramp over the ARPANET builtin: the engine must locate a
   finite knee inside the ramp for every (scenario, metric) group and
   publish both summary views. *)
let ramp_spec =
  { Sweep_spec.scenarios = [ Sweep_spec.Builtin "arpanet" ];
    metrics = [ Metric.D_spf; Metric.Hn_spf ];
    scales = [ 0.5; 1.0; 1.5; 2.0; 2.5 ];
    seeds = [ 1 ];
    periods = 3;
    warmup = 1;
    critical_load =
      Some { Sweep_spec.ramp_from = 0.5; ramp_to = 2.5; ramp_steps = 5 } }

let test_critical_load_knees () =
  let r = Sweep_engine.run ~domains:1 ramp_spec in
  Alcotest.(check int) "one knee per (scenario, metric)" 2
    (List.length r.Sweep_engine.knees);
  List.iter
    (fun (k : Sweep_engine.knee) ->
      let within x = Float.is_finite x && x >= 0.5 && x <= 2.5 in
      Alcotest.(check bool) "delay knee on the ramp" true
        (within k.Sweep_engine.k_scale_delay);
      Alcotest.(check bool) "throughput knee on the ramp" true
        (within k.Sweep_engine.k_scale_throughput);
      Alcotest.(check bool) "knee observations are finite" true
        (Float.is_finite k.Sweep_engine.k_delay_ms
        && Float.is_finite k.Sweep_engine.k_throughput_bps))
    r.Sweep_engine.knees;
  (match r.Sweep_engine.rankings with
  | first :: _ -> Alcotest.(check int) "best group ranks 1" 1 first.Sweep_engine.r_rank
  | [] -> Alcotest.fail "ramp report has no rankings");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report JSON carries the critical_load section" true
    (contains (Obs_json.to_string r.Sweep_engine.json) "\"critical_load\"");
  let lines =
    String.split_on_char '\n' (String.trim (Sweep_engine.summary_csv r))
  in
  Alcotest.(check int) "summary CSV: header + 2 ranking + 2 knee rows" 5
    (List.length lines)

(* --- sweep fabric: stealing, shards, resume ------------------------ *)

let report_bytes (r : Sweep_engine.report) = Obs_json.to_string r.Sweep_engine.json

(* Random tiny grids: the work-stealing fan-out must reproduce the
   sequential report byte for byte whatever the grid shape, scenario
   mix, or domain count. *)
let grid_case =
  QCheck.make ~print:(fun (seed, scales, with_file, domains) ->
      Printf.sprintf "seed=%d scales=%d file=%b domains=%d" seed scales
        with_file domains)
    QCheck.Gen.(
      quad (int_bound 1000) (int_range 1 3) bool (int_range 2 4))

let grid_spec (seed, scales, with_file, _domains) =
  { Sweep_spec.scenarios =
      (Sweep_spec.Builtin "arpanet"
       :: (if with_file then [ Sweep_spec.File (scenario "two_region.scn") ] else []));
    metrics = [ Metric.D_spf; Metric.Hn_spf ];
    scales = List.init scales (fun i -> 0.7 +. (0.2 *. float_of_int i));
    seeds = [ seed; seed + 1 ];
    periods = 3;
    warmup = 1;
    critical_load = None }

let run_grid_case case =
  let _, _, _, domains = case in
  let spec = grid_spec case in
  let sequential = Sweep_engine.run ~domains:1 spec in
  let stolen = Sweep_engine.run ~domains spec in
  if report_bytes sequential <> report_bytes stolen then
    QCheck.Test.fail_reportf "work-stealing report differs at %d domains" domains;
  true

let prop_stealing_byte_identical =
  QCheck.Test.make ~count:6
    ~name:"work-stealing reports == sequential (random grids)" grid_case
    run_grid_case

let test_resume_byte_identity () =
  (* Interrupt a grid mid-flight (only shard 0/2 of the points ran, as
     if the process died), then resume from the partial report: the
     resumed report must be byte-identical to an uninterrupted run, and
     the reused points must not re-simulate. *)
  let prep = Sweep_engine.prepare small_spec in
  let uninterrupted = Sweep_engine.run_prepared ~domains:1 prep in
  let partial =
    Sweep_engine.run_prepared ~domains:1
      ~subset:(fun p -> p.Sweep_engine.index mod 2 = 0)
      prep
  in
  let stored =
    match Sweep_engine.stored_points partial.Sweep_engine.json with
    | Ok pts -> pts
    | Error e -> Alcotest.failf "partial report does not decode: %s" e
  in
  Alcotest.(check int) "partial covers half the grid"
    ((Array.length (Sweep_engine.prepared_points prep) + 1) / 2)
    (List.length stored);
  let table = Hashtbl.create 16 in
  List.iter (fun (h, ind) -> Hashtbl.replace table h ind) stored;
  let reused = ref 0 in
  let resumed =
    Sweep_engine.run_prepared ~domains:1
      ~reuse:(fun h ->
        match Hashtbl.find_opt table h with
        | Some ind ->
          incr reused;
          Some ind
        | None -> None)
      prep
  in
  Alcotest.(check int) "every stored point reused" (List.length stored) !reused;
  Alcotest.(check string) "resumed report == uninterrupted report"
    (report_bytes uninterrupted) (report_bytes resumed)

let test_shard_merge_associativity () =
  let prep = Sweep_engine.prepare small_spec in
  let full = Sweep_engine.run_prepared ~domains:1 prep in
  let shard k =
    (Sweep_engine.run_prepared ~domains:1
       ~subset:(fun p -> p.Sweep_engine.index mod 3 = k)
       prep)
      .Sweep_engine.json
  in
  let s0 = shard 0 and s1 = shard 1 and s2 = shard 2 in
  let merged shards =
    match Sweep_engine.merge prep shards with
    | Ok r -> report_bytes r
    | Error e -> Alcotest.failf "merge failed: %s" e
  in
  Alcotest.(check string) "merge(s0,s1,s2) == single run" (report_bytes full)
    (merged [ s0; s1; s2 ]);
  Alcotest.(check string) "merge order irrelevant" (report_bytes full)
    (merged [ s2; s0; s1 ]);
  (* Associativity through a partial intermediate: (s0 + s1) + s2. *)
  let s01 =
    match Sweep_engine.merge ~allow_partial:true prep [ s0; s1 ] with
    | Ok r -> r.Sweep_engine.json
    | Error e -> Alcotest.failf "partial merge failed: %s" e
  in
  Alcotest.(check string) "merge(merge(s0,s1), s2) == single run"
    (report_bytes full)
    (merged [ s01; s2 ]);
  (* Incomplete without allow_partial is an error, not a report. *)
  (match Sweep_engine.merge prep [ s0; s1 ] with
  | Ok _ -> Alcotest.fail "incomplete merge unexpectedly succeeded"
  | Error _ -> ());
  (* A shard from a different grid is rejected by hash. *)
  let other =
    Sweep_engine.prepare { small_spec with Sweep_spec.periods = 7 }
  in
  match Sweep_engine.merge other [ s0; s1; s2 ] with
  | Ok _ -> Alcotest.fail "foreign shards unexpectedly merged"
  | Error _ -> ()

let test_point_hashes () =
  let prep = Sweep_engine.prepare small_spec in
  let hashes = Sweep_engine.point_hashes prep in
  let distinct = List.sort_uniq compare (Array.to_list hashes) in
  Alcotest.(check int) "hashes are distinct per point" (Array.length hashes)
    (List.length distinct);
  (* Grid-shape independence: dropping a scale axis value keeps the
     surviving points' hashes, so shards and resumes survive spec
     edits that only reshape the grid. *)
  let narrowed =
    Sweep_engine.prepare { small_spec with Sweep_spec.scales = [ 1.1 ] }
  in
  let pts = Sweep_engine.prepared_points prep in
  let narrowed_pts = Sweep_engine.prepared_points narrowed in
  let narrowed_hashes = Sweep_engine.point_hashes narrowed in
  Array.iteri
    (fun j (np : Sweep_engine.point) ->
      let matching = ref None in
      Array.iteri
        (fun i (p : Sweep_engine.point) ->
          if
            p.scenario = np.scenario && p.metric = np.metric
            && p.scale = np.scale && p.seed = np.seed
          then matching := Some i)
        pts;
      match !matching with
      | None -> Alcotest.fail "narrowed grid is not a subset"
      | Some i ->
        Alcotest.(check string) "same point, same hash" hashes.(i)
          narrowed_hashes.(j))
    narrowed_pts;
  (* Content sensitivity: the same period budget under different
     periods must hash differently (it is different work). *)
  let longer =
    Sweep_engine.point_hashes
      (Sweep_engine.prepare { small_spec with Sweep_spec.periods = 6 })
  in
  Alcotest.(check bool) "periods change the hash" false
    (String.equal hashes.(0) longer.(0))

(* --- the builtin catalogue ------------------------------------------ *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* [scenarios/] ships each builtin at seed 7 as [arpanet_sim --dump]
   prints it. *)
let test_builtin_snapshots () =
  let shipped =
    [ ("arpanet", "arpanet_peak.scn");
      ("milnet", "milnet_peak.scn");
      ("two-region", "two_region.scn") ]
  in
  Alcotest.(check (list string)) "catalogue names" (List.map fst shipped)
    Script.builtins;
  List.iter
    (fun (name, file) ->
      match Script.builtin name with
      | None -> Alcotest.failf "%s is not in the catalogue" name
      | Some (g, demand) ->
        Alcotest.(check string)
          (Printf.sprintf "%s at seed 7 = %s" name file)
          (read_file (scenario file))
          (Serial.to_string g (Some (demand 7))))
    shipped;
  Alcotest.(check bool) "unknown name" true (Script.builtin "atlantis" = None)

(* A builtin's hash covers its name, not its content: shards and resume
   files written before the catalogue existed keep merging. *)
let test_builtin_point_hashes () =
  let spec =
    { Sweep_spec.scenarios =
        [ Sweep_spec.Builtin "arpanet"; Sweep_spec.Builtin "milnet" ];
      metrics = [ Metric.D_spf; Metric.Hn_spf ];
      scales = [ 1.0 ];
      seeds = [ 7 ];
      periods = 12;
      warmup = 2;
      critical_load = None }
  in
  Alcotest.(check (array string)) "arpanet and milnet, D-SPF and HN-SPF"
    [| "ee0f1674d1b5895f5784a2890d4edaa4";
       "1785fe4992a7ae836c0c4bedfd6c8fd9";
       "16d86f1f206f5f8d99bfe9485c09e395";
       "2558c05649f9edd4a40f6dcb55943294" |]
    (Sweep_engine.point_hashes (Sweep_engine.prepare spec))

(* Fig 1 as sweep points: each is [Script.run] on the catalogue's
   scenario at the point's scale, and D-SPF's round trip is the longer. *)
let test_two_region_sweep () =
  let spec =
    match
      Sweep_spec.parse
        {|{"scenarios": ["two-region"], "metrics": ["dspf", "hnspf"],
           "scales": [1.0, 1.3], "seeds": [7], "periods": 12, "warmup": 2}|}
    with
    | Ok spec -> spec
    | Error issue -> Alcotest.failf "spec rejected: %s" issue.message
  in
  Alcotest.(check bool) "a builtin" true
    (spec.Sweep_spec.scenarios = [ Sweep_spec.Builtin "two-region" ]);
  Alcotest.(check int) "lints clean" 0 (List.length (Sweep_spec.lint spec));
  let report = Sweep_engine.run ~domains:1 spec in
  let g, demand = Option.get (Script.builtin "two-region") in
  Array.iter
    (fun (o : Sweep_engine.outcome) ->
      let p = o.point in
      let sim =
        Script.run ~domains:1 ~metric:p.metric
          { Script.graph = g;
            traffic = Traffic_matrix.scale (demand p.seed) p.scale;
            events = [] }
          ~periods:12
      in
      Alcotest.(check string)
        (Printf.sprintf "point %d = Script.run" p.index)
        (Obs_json.to_string (Measure.to_json (Flow_sim.indicators sim ~skip:2 ())))
        (Obs_json.to_string (Measure.to_json o.indicators)))
    report.Sweep_engine.outcomes;
  let rtt k = report.outcomes.(k).indicators.Measure.round_trip_delay_ms in
  Alcotest.(check bool) "D-SPF round trip exceeds HN-SPF's at x1.0" true
    (rtt 0 > rtt 2)

(* --- the indicator record ------------------------------------------ *)

let indicator_names =
  [ "elapsed_s"; "internode_traffic_bps"; "round_trip_delay_ms";
    "updates_per_s"; "update_period_per_node_s"; "actual_path_hops";
    "minimum_path_hops"; "path_ratio"; "dropped_per_s"; "overhead_bps";
    "delay_p50_ms"; "delay_p95_ms"; "delay_p99_ms";
    "route_changes_per_period"; "next_hop_flips_per_period";
    "link_flips_per_period" ]

(* The report's point objects and CSV columns are the record's fields,
   named and ordered as [Measure.fields] has them. *)
let test_record_format () =
  let r =
    { Measure.elapsed_s = 0.; internode_traffic_bps = 1.;
      round_trip_delay_ms = 2.; updates_per_s = 3.;
      update_period_per_node_s = 4.; actual_path_hops = 5.;
      minimum_path_hops = 6.; path_ratio = 7.; dropped_per_s = 8.;
      overhead_bps = 9.; delay_p50_ms = 10.; delay_p95_ms = 11.;
      delay_p99_ms = 12.; route_changes_per_period = 13.;
      next_hop_flips_per_period = 14.; link_flips_per_period = 15. }
  in
  Alcotest.(check (list string)) "names" indicator_names
    (List.map fst Measure.fields);
  Alcotest.(check (list (float 0.))) "record order"
    (List.init 16 float_of_int)
    (List.map (fun (_, get) -> get r) Measure.fields);
  let report =
    Sweep_engine.run ~domains:1
      { Sweep_spec.scenarios = [ Sweep_spec.Builtin "two-region" ];
        metrics = [ Metric.Hn_spf ];
        scales = [ 1.0 ];
        seeds = [ 1 ];
        periods = 3;
        warmup = 1;
        critical_load = None }
  in
  (match Obs_json.member "points" report.Sweep_engine.json with
   | Ok (Obs_json.List [ point ]) -> (
     match Obs_json.member "indicators" point with
     | Ok (Obs_json.Obj fields) ->
       Alcotest.(check (list string)) "point indicator keys" indicator_names
         (List.map fst fields)
     | _ -> Alcotest.fail "point has no indicator object")
   | _ -> Alcotest.fail "report has no one-point list");
  match String.split_on_char '\n' (Sweep_engine.csv report) with
  | header :: _ ->
    Alcotest.(check string) "CSV header"
      (String.concat ","
         ([ "index"; "scenario"; "metric"; "scale"; "seed" ] @ indicator_names))
      header
  | [] -> Alcotest.fail "empty CSV"

(* Any record, NaN, infinities and -0 included: decoding its JSON and
   encoding the result again gives the same bytes, each value back in
   its own field. *)
let prop_record_round_trip =
  let value =
    QCheck.Gen.(
      frequency
        [ (3, float);
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0. ])
        ])
  in
  QCheck.Test.make ~count:300 ~name:"indicator JSON round-trips"
    (QCheck.make
       ~print:(fun vs -> String.concat " " (List.map (Printf.sprintf "%h") vs))
       (QCheck.Gen.list_repeat (List.length Measure.fields) value))
    (fun values ->
      let text =
        Obs_json.to_string
          (Obs_json.Obj
             (List.map2
                (fun (name, _) v -> (name, Obs_json.Float v))
                Measure.fields values))
      in
      match Result.bind (Obs_json.of_string text) Measure.of_json with
      | Error e -> QCheck.Test.fail_reportf "%s does not decode: %s" text e
      | Ok r ->
        let again = Obs_json.to_string (Measure.to_json r) in
        if again <> text then
          QCheck.Test.fail_reportf "%s re-encodes as %s" text again;
        List.iter2
          (fun (name, get) v ->
            let got = get r in
            if
              not
                (Int64.equal (bits got) (bits v)
                || (Float.is_nan got && Float.is_nan v))
            then
              QCheck.Test.fail_reportf "%s: %h decodes as %h" name v got)
          Measure.fields values;
        true)

let test_shard_of_string () =
  let ok s = match Sweep_spec.shard_of_string s with
    | Ok v -> v
    | Error (i : Sweep_spec.issue) -> Alcotest.failf "%S rejected: %s" s i.message
  in
  let bad s = match Sweep_spec.shard_of_string s with
    | Ok (i, n) -> Alcotest.failf "%S accepted as %d/%d" s i n
    | Error (issue : Sweep_spec.issue) ->
      Alcotest.(check string) "S107" "S107" issue.code
  in
  Alcotest.(check (pair int int)) "0/4" (0, 4) (ok "0/4");
  Alcotest.(check (pair int int)) "3/4" (3, 4) (ok "3/4");
  Alcotest.(check (pair int int)) "0/1" (0, 1) (ok "0/1");
  bad "4/4"; bad "-1/4"; bad "0/0"; bad "x/2"; bad "1"; bad "1/"; bad "/2"

(* --- registry merge ------------------------------------------------ *)

let test_registry_merge () =
  let a = Obs_metrics.create () in
  let b = Obs_metrics.create () in
  Obs_metrics.inc ~by:3 (Obs_metrics.counter a "drops");
  Obs_metrics.inc ~by:4 (Obs_metrics.counter b "drops");
  Obs_metrics.set (Obs_metrics.gauge b "level") 2.5;
  Obs_metrics.sample (Obs_metrics.series b "util") ~time:1. 0.5;
  Obs_metrics.merge ~into:a b;
  Alcotest.(check int) "counters add" 7
    (Obs_metrics.counter_value (Obs_metrics.counter a "drops"));
  Alcotest.(check (float 0.)) "gauges copy" 2.5
    (Obs_metrics.gauge_value (Obs_metrics.gauge a "level"));
  (* The merged copy is deep: mutating the source later must not leak. *)
  Obs_metrics.inc ~by:100 (Obs_metrics.counter b "drops");
  Alcotest.(check int) "merge copies, not aliases" 7
    (Obs_metrics.counter_value (Obs_metrics.counter a "drops"))

(* --- S1xx spec lint ------------------------------------------------ *)

let codes diags = List.map (fun d -> d.Diagnostic.code) diags

(* Each fixture must raise its code with the expected severity, and
   answer at once: oversized axes are refused before they are expanded,
   so even a 10^12-seed range costs nothing (CPU seconds, generous). *)
let check_fixture_code (name, code, severity) () =
  let started = Sys.time () in
  let diags, _ = Sweep_check.check_file (fixture name) in
  let elapsed = Sys.time () -. started in
  Alcotest.(check bool)
    (Printf.sprintf "%s raises %s as %s (got: %s)" name code
       (Diagnostic.severity_name severity)
       (String.concat " " (codes diags)))
    true
    (List.exists
       (fun d ->
         String.equal d.Diagnostic.code code && d.Diagnostic.severity = severity)
       diags);
  Alcotest.(check bool)
    (Printf.sprintf "%s answered in %.3f s" name elapsed)
    true (elapsed < 1.)

let sweep_fixtures =
  Diagnostic.
    [ ("sweep_not_json.json", "S100", Error);
      ("sweep_unknown_scenario.json", "S101", Error);
      ("sweep_empty_axis.json", "S102", Error);
      ("sweep_duplicates.json", "S103", Warning);
      ("sweep_seedless_seeds.json", "S103", Warning);
      ("sweep_bad_seed.json", "S104", Error);
      ("sweep_bad_scale.json", "S105", Error);
      ("sweep_inf_scale.json", "S105", Error);
      ("sweep_bad_budget.json", "S106", Error);
      ("sweep_huge_seeds.json", "S106", Error);
      ("sweep_huge_ramp.json", "S106", Error);
      ("sweep_big_grid.json", "S106", Error);
      ("sweep_bad_ramp.json", "S109", Error);
      ("sweep_inf_ramp.json", "S109", Error) ]

let test_shipped_spec_clean () =
  (* The shipped example names scenario files relative to the repo root,
     so parse+lint the grid axes directly rather than through the
     file-existence pass (builtin-only: no file references). *)
  let text =
    In_channel.with_open_text (scenario "paper_sweep.json") In_channel.input_all
  in
  match Sweep_spec.parse text with
  | Error issue -> Alcotest.failf "paper_sweep.json: %s" issue.message
  | Ok spec ->
    Alcotest.(check (list string)) "paper_sweep.json lints clean" []
      (List.map (fun (i : Sweep_spec.issue) -> i.code) (Sweep_spec.lint spec));
    Alcotest.(check int) "grid: 2 metrics x 7 scales x 2 seeds" 28
      (List.length (Sweep_engine.points spec))

let test_spec_defaults () =
  match Sweep_spec.parse {|{"scenarios": ["milnet"]}|} with
  | Error issue -> Alcotest.failf "minimal spec rejected: %s" issue.message
  | Ok spec ->
    Alcotest.(check int) "default periods" 60 spec.Sweep_spec.periods;
    Alcotest.(check int) "default warmup" 0 spec.Sweep_spec.warmup;
    Alcotest.(check (list (float 0.))) "default scales" [ 1.0 ]
      spec.Sweep_spec.scales;
    Alcotest.(check (list int)) "default seeds" [ 0 ] spec.Sweep_spec.seeds;
    Alcotest.(check int) "default metrics" 1 (List.length spec.Sweep_spec.metrics)

let test_seed_range () =
  match Sweep_spec.parse {|{"scenarios": ["arpanet"], "seeds": {"from": 3, "count": 4}}|} with
  | Error issue -> Alcotest.failf "range spec rejected: %s" issue.message
  | Ok spec ->
    Alcotest.(check (list int)) "range expands" [ 3; 4; 5; 6 ]
      spec.Sweep_spec.seeds

(* Integral floats beyond OCaml's int range are not integers: they must
   not wrap into a small or zero budget that lints clean or misreports. *)
let test_spec_int_range () =
  List.iter
    (fun (field, text) ->
      match Sweep_spec.parse text with
      | Ok _ -> Alcotest.failf "%s: accepted %s" field text
      | Error issue ->
        let expected = Printf.sprintf "%S must be an integer" field in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names the field" field issue.message)
          true
          (issue.code = "S100"
          && Astring.String.is_infix ~affix:expected issue.message))
    [ ("periods", {|{"scenarios": ["arpanet"], "periods": 1e20}|});
      ("warmup", {|{"scenarios": ["arpanet"], "warmup": 1e19}|}) ]

let () =
  Alcotest.run "sweep"
    [ ( "assignment",
        [ QCheck_alcotest.to_alcotest prop_assignment_matches_baseline;
          QCheck_alcotest.to_alcotest prop_parallel_bit_identical;
          Alcotest.test_case "scratch reuse" `Quick test_assignment_scratch_reuse;
          Alcotest.test_case "paths of 256 hops or more" `Quick
            test_assignment_long_paths ] );
      ( "flow store",
        [ Alcotest.test_case "matrix round-trip and aggregate" `Quick
            test_store_matrix_round_trip;
          Alcotest.test_case "heavy-tailed generator determinism" `Quick
            test_heavy_tailed_determinism ] );
      ( "engine",
        [ Alcotest.test_case "points enumeration" `Quick test_points_enumeration;
          Alcotest.test_case "domain-count independence" `Quick
            test_report_domain_independent;
          Alcotest.test_case "report round-trips" `Quick test_report_round_trips
        ] );
      ( "critical load",
        [ Alcotest.test_case "ramp parse and lint" `Quick
            test_critical_load_parse;
          Alcotest.test_case "knees located on a quick ramp" `Quick
            test_critical_load_knees ] );
      ( "fabric",
        [ QCheck_alcotest.to_alcotest prop_parallel_for_exactly_once;
          QCheck_alcotest.to_alcotest prop_stealing_byte_identical;
          Alcotest.test_case "resume byte-identity" `Quick
            test_resume_byte_identity;
          Alcotest.test_case "shard-merge associativity" `Quick
            test_shard_merge_associativity;
          Alcotest.test_case "point hashes" `Quick test_point_hashes;
          Alcotest.test_case "--shard grammar (S107)" `Quick
            test_shard_of_string ] );
      ( "merge",
        [ Alcotest.test_case "registry merge" `Quick test_registry_merge ] );
      ( "catalogue",
        [ Alcotest.test_case "builtins = shipped snapshots" `Quick
            test_builtin_snapshots;
          Alcotest.test_case "builtin point hashes" `Quick
            test_builtin_point_hashes;
          Alcotest.test_case "two-region sweep points" `Quick
            test_two_region_sweep ] );
      ( "record",
        [ Alcotest.test_case "names and order" `Quick test_record_format;
          QCheck_alcotest.to_alcotest prop_record_round_trip ] );
      ( "spec",
        List.map
          (fun ((name, code, _) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%s -> %s" name code)
              `Quick (check_fixture_code case))
          sweep_fixtures
        @ [ Alcotest.test_case "shipped example clean" `Quick
              test_shipped_spec_clean;
            Alcotest.test_case "defaults" `Quick test_spec_defaults;
            Alcotest.test_case "seed range" `Quick test_seed_range;
            Alcotest.test_case "integers beyond the int range" `Quick
              test_spec_int_range ] ) ]
