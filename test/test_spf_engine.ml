(* Tests for the all-pairs SPF engine, the domain pool and the CSR
   adjacency: the engine must serve trees bit-identical to a from-scratch
   Dijkstra in every configuration — sequential or parallel, incremental
   repair or full sweep. *)

open Routing_topology
module Dijkstra = Routing_spf.Dijkstra
module Spf_engine = Routing_spf.Spf_engine
module Spf_tree = Routing_spf.Spf_tree
module Domain_pool = Routing_metric.Domain_pool
module Flow_sim = Routing_sim.Flow_sim
module Flow_store = Routing_sim.Flow_store
module Metric = Routing_metric.Metric
module Rng = Routing_stats.Rng

let random_graph seed =
  let rng = Rng.create seed in
  let nodes = 4 + Rng.int rng 12 in
  Generators.ring_chord rng ~nodes ~chords:(Rng.int rng (2 * nodes))

(* --- Domain pool --- *)

let test_pool_covers_all_indices () =
  let pool = Domain_pool.create 3 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let n = 1000 in
  let hits = Array.make n 0 in
  (* Racy increments would be a test bug; per-index slots are the pool's
     contract, and each index is handed out exactly once. *)
  let bump () i = hits.(i) <- hits.(i) + 1 in
  Domain_pool.parallel_for pool ~init:ignore n bump;
  Alcotest.(check bool) "every index ran once" true
    (Array.for_all (fun h -> h = 1) hits);
  (* The pool is reusable. *)
  Domain_pool.parallel_for pool ~init:ignore n bump;
  Alcotest.(check bool) "second loop too" true
    (Array.for_all (fun h -> h = 2) hits)

let test_pool_propagates_exception () =
  let pool = Domain_pool.create 2 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let raised =
    try
      Domain_pool.parallel_for pool ~init:ignore 50 (fun () i ->
          if i = 17 then failwith "boom");
      false
    with Failure m -> m = "boom"
  in
  Alcotest.(check bool) "exception reaches the caller" true raised;
  (* And the pool survives it. *)
  let count = Atomic.make 0 in
  Domain_pool.parallel_for pool ~init:ignore 10 (fun () _ ->
      Atomic.incr count);
  Alcotest.(check int) "usable after failure" 10 (Atomic.get count)

let test_pool_size_one_is_sequential () =
  let pool = Domain_pool.create 1 in
  let order = ref [] in
  Domain_pool.parallel_for pool ~init:ignore 5 (fun () i ->
      order := i :: !order);
  Alcotest.(check (list int)) "inline, in order" [ 4; 3; 2; 1; 0 ] !order

(* Workers are spawned by the first loop that fans out.  That loop must
   already run on them: each of its two indices waits (up to 5 s) until
   both have started, which only happens when a second domain took one. *)
let test_pool_first_loop_uses_workers () =
  let pool = Domain_pool.create 2 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let started = Atomic.make 0 in
  let waited_out = Array.make 2 false in
  Domain_pool.parallel_for pool ~init:ignore 2 (fun () i ->
      Atomic.incr started;
      let deadline = Unix.gettimeofday () +. 5. in
      while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      waited_out.(i) <- Atomic.get started < 2);
  Alcotest.(check (array bool)) "both indices ran at once" [| false; false |]
    waited_out

(* --- CSR adjacency vs list adjacency --- *)

let prop_csr_matches_lists =
  QCheck2.Test.make ~name:"CSR adjacency = list adjacency" ~count:100
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let off, link_ids, dsts = Graph.csr_out g in
      let in_off, in_link_ids = Graph.csr_in g in
      Array.length off = Graph.node_count g + 1
      && Array.length link_ids = Graph.link_count g
      && Array.length in_off = Graph.node_count g + 1
      && Array.length in_link_ids = Graph.link_count g
      && List.for_all
           (fun node ->
             let i = Node.to_int node in
             let out_flat =
               List.init (off.(i + 1) - off.(i)) (fun k ->
                   (link_ids.(off.(i) + k), dsts.(off.(i) + k)))
             in
             let out_list =
               List.map
                 (fun (l : Link.t) ->
                   (Link.id_to_int l.id, Node.to_int l.dst))
                 (Graph.out_links g node)
             in
             let in_flat =
               List.init (in_off.(i + 1) - in_off.(i)) (fun k ->
                   in_link_ids.(in_off.(i) + k))
             in
             let in_list =
               List.map
                 (fun (l : Link.t) -> Link.id_to_int l.id)
                 (Graph.in_links g node)
             in
             out_flat = out_list && in_flat = in_list)
           (Graph.nodes g))

(* --- Engine refresh = full recompute, under random perturbations --- *)

let check_engine_matches_full g engine ~enabled ~cost =
  Spf_engine.refresh engine ~enabled:(fun l -> enabled (Link.id_to_int l))
    ~cost:(fun l -> cost (Link.id_to_int l));
  Graph.iter_nodes g (fun node ->
      let fresh =
        Dijkstra.compute
          ~enabled:(fun l -> enabled (Link.id_to_int l))
          g
          ~cost:(fun l -> cost (Link.id_to_int l))
          node
      in
      if not (Spf_tree.equal fresh (Spf_engine.tree engine node)) then
        Alcotest.failf "engine tree differs from full recompute at node %d"
          (Node.to_int node))

let prop_engine_incremental_matches_full =
  QCheck2.Test.make ~name:"engine refresh = full recompute" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed lxor 0xC0FFEE) in
      let nl = Graph.link_count g in
      let costs = Array.init nl (fun _ -> 1 + Rng.int rng 60) in
      let up = Array.make nl true in
      let engine = Spf_engine.create g in
      check_engine_matches_full g engine
        ~enabled:(fun i -> up.(i))
        ~cost:(fun i -> costs.(i));
      (* Single-link perturbations: cost moves, links flapping down/up. *)
      for _ = 1 to 12 do
        let i = Rng.int rng nl in
        (match Rng.int rng 4 with
        | 0 -> up.(i) <- not up.(i)
        | _ -> costs.(i) <- 1 + Rng.int rng 60);
        check_engine_matches_full g engine
          ~enabled:(fun i -> up.(i))
          ~cost:(fun i -> costs.(i))
      done;
      (* A bulk change well above the threshold forces the full-sweep path. *)
      for i = 0 to nl - 1 do
        costs.(i) <- 1 + Rng.int rng 60
      done;
      check_engine_matches_full g engine
        ~enabled:(fun i -> up.(i))
        ~cost:(fun i -> costs.(i));
      true)

(* Multi-link batch deltas: several links move in one refresh — mixed
   increases, decreases, outages and recoveries — which is exactly the
   shape the dynamic-repair path has to get right in one pass.  Also
   checks that the repair path actually ran, so a regression cannot hide
   behind full sweeps. *)
let prop_engine_batch_deltas_match_full =
  QCheck2.Test.make ~name:"engine batch deltas = full recompute" ~count:30
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed lxor 0xBA7C4) in
      let nl = Graph.link_count g in
      let costs = Array.init nl (fun _ -> 1 + Rng.int rng 60) in
      let up = Array.make nl true in
      let engine = Spf_engine.create g in
      check_engine_matches_full g engine
        ~enabled:(fun i -> up.(i))
        ~cost:(fun i -> costs.(i));
      for _ = 1 to 8 do
        (* Between 2 and 5 links change together, each either flapping
           or moving its cost. *)
        let batch = 2 + Rng.int rng 4 in
        for _ = 1 to batch do
          let i = Rng.int rng nl in
          match Rng.int rng 3 with
          | 0 -> up.(i) <- not up.(i)
          | _ -> costs.(i) <- 1 + Rng.int rng 60
        done;
        check_engine_matches_full g engine
          ~enabled:(fun i -> up.(i))
          ~cost:(fun i -> costs.(i))
      done;
      (* Guarantee the repair path actually ran at least once: bumping a
         tree-parent link is provably "affected", and one change is
         always under the full-sweep threshold. *)
      for i = 0 to nl - 1 do
        up.(i) <- true
      done;
      check_engine_matches_full g engine
        ~enabled:(fun i -> up.(i))
        ~cost:(fun i -> costs.(i));
      let before = (Spf_engine.stats engine).Spf_engine.sources_repaired in
      let tree = Spf_engine.tree engine (Node.of_int 0) in
      let parent =
        Option.get (Spf_tree.parent_link tree (Node.of_int 1))
      in
      costs.(Link.id_to_int parent.Link.id) <-
        costs.(Link.id_to_int parent.Link.id) + 1;
      check_engine_matches_full g engine
        ~enabled:(fun i -> up.(i))
        ~cost:(fun i -> costs.(i));
      let after = (Spf_engine.stats engine).Spf_engine.sources_repaired in
      if after <= before then
        QCheck2.Test.fail_report
          "a tree-parent cost bump must take the repair path";
      (* An in-place full sweep: every link moves to a different cost and
         one node is cut off, so every tree is recomputed over its own
         stale arrays, where the cut node must come out unreached. *)
      let sweeps = (Spf_engine.stats engine).Spf_engine.full_sweeps in
      let cut = Rng.int rng (Graph.node_count g) in
      for i = 0 to nl - 1 do
        costs.(i) <- 1 + ((costs.(i) + Rng.int rng 59) mod 60);
        let l = Graph.link g (Link.id_of_int i) in
        up.(i) <- Node.to_int l.Link.src <> cut && Node.to_int l.Link.dst <> cut
      done;
      check_engine_matches_full g engine
        ~enabled:(fun i -> up.(i))
        ~cost:(fun i -> costs.(i));
      if (Spf_engine.stats engine).Spf_engine.full_sweeps <= sweeps then
        QCheck2.Test.fail_report
          "re-costing every link must take the full-sweep path";
      true)

(* --- Determinism: parallel = sequential, bit for bit --- *)

(* The generated 200-node mesh of the benchmarks: one full sweep is
   200 x (200 + 640) node-or-edge visits, well above the engine's
   fan-out threshold (the 57-node ARPANET's 11,457 stays below it). *)
let mesh200 () = Generators.ring_chord (Rng.create 99) ~nodes:200 ~chords:120

let test_parallel_engine_matches_sequential () =
  let g = mesh200 () in
  let pool = Domain_pool.create 3 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let blocks = Atomic.make 0 in
  Domain_pool.set_probe pool
    (Some
       { Domain_pool.chunk_begin =
           (fun ~label:_ ~lo:_ ~hi:_ -> Atomic.incr blocks);
         chunk_end = (fun ~label:_ ~lo:_ ~hi:_ -> ()) });
  let par = Spf_engine.create ~pool g in
  let seq = Spf_engine.create g in
  Alcotest.check_raises "no tree before the first refresh"
    (Invalid_argument "Spf_engine.tree: refresh the engine first") (fun () ->
      ignore (Spf_engine.tree par (Node.of_int 0)));
  let rng = Rng.create 11 in
  let nl = Graph.link_count g and n = Graph.node_count g in
  let costs = Array.init nl (fun _ -> 1 + Rng.int rng 40) in
  let cost l = costs.(Link.id_to_int l) in
  let refresh_both () =
    Spf_engine.refresh par ~cost;
    Spf_engine.refresh seq ~cost
  in
  (* Every refresh works in place: each source keeps the tree the first
     refresh allocated, whichever path a later refresh takes. *)
  let firsts = ref [||] in
  let check_trees what =
    Graph.iter_nodes g (fun node ->
        Alcotest.(check bool)
          (Printf.sprintf "trees agree at node %d" (Node.to_int node))
          true
          (Spf_tree.equal (Spf_engine.tree seq node) (Spf_engine.tree par node)));
    Array.iteri
      (fun i (p, s) ->
        let node = Node.of_int i in
        if not (Spf_engine.tree par node == p && Spf_engine.tree seq node == s)
        then Alcotest.failf "source %d got a new tree at %s" i what)
      !firsts
  in
  for round = 0 to 8 do
    refresh_both ();
    if round = 0 then
      firsts :=
        Array.init n (fun i ->
            let node = Node.of_int i in
            (Spf_engine.tree par node, Spf_engine.tree seq node));
    check_trees
      (if round = 0 then "the first refresh"
       else if round mod 3 = 0 then "a full sweep"
       else "a repair");
    refresh_both ();
    check_trees "a quiet refresh";
    if round mod 3 = 2 then
      (* Re-cost half the links: more than a quarter changed forces the
         next refresh into a full (parallel) sweep. *)
      for i = 0 to (nl / 2) - 1 do
        costs.(2 * i) <- 1 + Rng.int rng 40
      done
    else costs.(Rng.int rng nl) <- 1 + Rng.int rng 40
  done;
  let stats = Spf_engine.stats par in
  Alcotest.(check int) "every quiet refresh skipped" 9 stats.Spf_engine.skipped;
  Alcotest.(check bool) "single-link changes repaired trees" true
    (stats.Spf_engine.sources_repaired > 0);
  Alcotest.(check int) "full sweeps: the first refresh and two re-costs" 3
    (Spf_engine.stats par).Spf_engine.full_sweeps;
  Alcotest.(check bool) "same work as the sequential engine" true
    (Spf_engine.stats par = Spf_engine.stats seq);
  Alcotest.(check bool)
    (Printf.sprintf "the pool handed out blocks (%d)" (Atomic.get blocks))
    true
    (Atomic.get blocks > 0)

let flap_scenario sim =
  let g = Flow_sim.graph sim in
  let some_link i = Link.id_of_int (i mod Graph.link_count g) in
  List.concat_map
    (fun round ->
      ignore (Flow_sim.step sim);
      Flow_sim.set_link_up sim (some_link (7 * round)) false;
      let a = Flow_sim.step sim in
      Flow_sim.set_link_up sim (some_link (7 * round)) true;
      let b = Flow_sim.step sim in
      [ a; b ])
    [ 1; 2; 3; 4 ]

(* mesh200 with 8,192 heavy-tailed flows: above both fan-out thresholds
   (the engine's 16,384 visits, [Flow_sim]'s 4,096 flows), so the
   3-domain run sends full recomputes and every period's load
   assignment through the pool. *)
let test_flow_sim_stats_independent_of_domains () =
  let g = mesh200 () in
  let tm = Traffic_matrix.gravity (Rng.create 3) ~nodes:200 ~total_bps:2e6 in
  let run domains =
    let sim = Flow_sim.create ~domains g Metric.Hn_spf tm in
    Flow_sim.set_flows sim
      (Flow_store.heavy_tailed (Rng.create 5) ~nodes:200 ~flows:8192
         ~total_bps:(Traffic_matrix.total_bps tm)
         ~size:(Flow_store.Pareto { alpha = 1.2 }));
    flap_scenario sim
  in
  let seq = run 1 and par = run 3 in
  (* period_stats is all floats and ints: structural equality is exact
     bitwise agreement of every indicator in every period. *)
  Alcotest.(check bool) "period stats identical" true (seq = par);
  (* Equality across domain counts cannot see a fault both runs share.
     Pin every field of every period, floats as exact hex: each flap
     changes the min-hop trees, so a min-hop column that is not refilled
     after its engine does work moves mean_min_hops in the link-down
     periods. *)
  let buf = Buffer.create 2048 in
  List.iter
    (fun (s : Flow_sim.period_stats) ->
      Printf.bprintf buf "%h %h %h %h %h %h %h %d %h %h %d %d %d %d\n"
        s.time_s s.offered_bps s.delivered_bps s.dropped_bps s.mean_delay_s
        s.mean_hops s.mean_min_hops s.updates s.update_bits
        s.max_utilization s.congested_links s.routes_changed
        s.next_hop_flips s.link_flips)
    seq;
  Alcotest.(check string) "period stats digest"
    "b6f392b3329462e80b637876a66447bd"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- Refresh skipping when nothing flooded --- *)

let test_refresh_skipped_when_quiet () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  (* Static-capacity costs never change after the initial flood, so every
     period after the first must reuse all trees without recomputing. *)
  let sim = Flow_sim.create g Metric.Static_capacity tm in
  ignore (Flow_sim.run sim ~periods:6);
  let stats = Flow_sim.spf_stats sim in
  Alcotest.(check int) "refreshes" 6 stats.Spf_engine.refreshes;
  Alcotest.(check int) "all but the first skipped" 5
    stats.Spf_engine.skipped;
  Alcotest.(check int) "one full sweep" 1 stats.Spf_engine.full_sweeps;
  Alcotest.(check int) "one Dijkstra per node, ever"
    (Graph.node_count g) stats.Spf_engine.sources_recomputed

let test_refresh_repairs_only_affected () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let sim = Flow_sim.create g Metric.Hn_spf tm in
  ignore (Flow_sim.run sim ~periods:12);
  let stats = Flow_sim.spf_stats sim in
  (* HN-SPF floods a handful of links per period; the engine must be
     reusing trees, not sweeping. *)
  Alcotest.(check bool)
    (Printf.sprintf "some trees reused (%d reused, %d recomputed)"
       stats.Spf_engine.sources_reused stats.Spf_engine.sources_recomputed)
    true
    (stats.Spf_engine.sources_reused > 0)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_spf_engine"
    [ ( "domain_pool",
        [ Alcotest.test_case "covers all indices" `Quick
            test_pool_covers_all_indices;
          Alcotest.test_case "propagates exceptions" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "size 1 is sequential" `Quick
            test_pool_size_one_is_sequential;
          Alcotest.test_case "first loop uses the workers" `Quick
            test_pool_first_loop_uses_workers ] );
      ("csr", qsuite [ prop_csr_matches_lists ]);
      ( "engine",
        [ Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_engine_matches_sequential ]
        @ qsuite
            [ prop_engine_incremental_matches_full;
              prop_engine_batch_deltas_match_full ] );
      ( "simulator",
        [ Alcotest.test_case "stats independent of domains" `Quick
            test_flow_sim_stats_independent_of_domains;
          Alcotest.test_case "quiet periods skip refresh" `Quick
            test_refresh_skipped_when_quiet;
          Alcotest.test_case "incremental repair engages" `Quick
            test_refresh_repairs_only_affected ] ) ]
