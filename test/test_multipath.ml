(* Tests for routing_multipath: the §4.5 "future work" extension. *)

open Routing_topology
module Reverse_spf = Routing_multipath.Reverse_spf
module Ecmp = Routing_multipath.Ecmp
module Yen = Routing_multipath.Yen
module Multipath_sim = Routing_multipath.Multipath_sim
module Flow_sim = Routing_sim.Flow_sim
module Dijkstra = Routing_spf.Dijkstra
module Spf_tree = Routing_spf.Spf_tree
module Metric = Routing_metric.Metric
module Rng = Routing_stats.Rng

let node g name = Option.get (Graph.node_by_name g name)

(* A square: S -> A -> T and S -> B -> T, two equal two-hop paths. *)
let square () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "S" "A" in
  let _ = Builder.trunk b Line_type.T56 "A" "T" in
  let _ = Builder.trunk b Line_type.T56 "S" "B" in
  let _ = Builder.trunk b Line_type.T56 "B" "T" in
  Builder.build b

let constant_cost c = fun _ -> c

(* --- Reverse SPF --- *)

let test_reverse_distances () =
  let g = square () in
  let rspf = Reverse_spf.compute g ~cost:(constant_cost 10) (node g "T") in
  Alcotest.(check int) "dst at zero" 0 (Reverse_spf.dist_to rspf (node g "T"));
  Alcotest.(check int) "A one link" 10 (Reverse_spf.dist_to rspf (node g "A"));
  Alcotest.(check int) "S two links" 20 (Reverse_spf.dist_to rspf (node g "S"))

let test_reverse_matches_forward () =
  let rng = Rng.create 21 in
  let g = Generators.ring_chord rng ~nodes:12 ~chords:6 in
  let costs = Array.init (Graph.link_count g) (fun _ -> 1 + Rng.int rng 40) in
  let cost lid = costs.(Link.id_to_int lid) in
  let dst = Node.of_int 3 in
  let rspf = Reverse_spf.compute g ~cost dst in
  Graph.iter_nodes g (fun src ->
      let tree = Dijkstra.compute g ~cost src in
      let fwd = if Spf_tree.reached tree dst then Spf_tree.dist tree dst else max_int in
      let fwd = if Node.equal src dst then 0 else fwd in
      Alcotest.(check int) "reverse dist = forward dist" fwd
        (Reverse_spf.dist_to rspf src))

let test_next_hop_sets () =
  let g = square () in
  let rspf = Reverse_spf.compute g ~cost:(constant_cost 10) (node g "T") in
  Alcotest.(check int) "S has two equal next hops" 2
    (List.length (Reverse_spf.next_hops rspf (node g "S")));
  Alcotest.(check int) "A has one" 1
    (List.length (Reverse_spf.next_hops rspf (node g "A")));
  Alcotest.(check int) "T has none" 0
    (List.length (Reverse_spf.next_hops rspf (node g "T")))

let test_descending_order () =
  let g = square () in
  let rspf = Reverse_spf.compute g ~cost:(constant_cost 10) (node g "T") in
  let order = Reverse_spf.nodes_by_descending_distance rspf in
  let dists = List.map (Reverse_spf.dist_to rspf) order in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b && nonincreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "farthest first" true (nonincreasing dists);
  Alcotest.(check int) "all nodes present" 4 (List.length order)

(* --- ECMP spreading --- *)

let test_ecmp_even_split () =
  let g = square () in
  let tm = Traffic_matrix.create ~nodes:4 in
  Traffic_matrix.set tm ~src:(node g "S") ~dst:(node g "T") 1000.;
  let loads = Ecmp.spread g ~cost:(constant_cost 10) tm in
  let sa = Option.get (Graph.find_link g ~src:(node g "S") ~dst:(node g "A")) in
  let sb = Option.get (Graph.find_link g ~src:(node g "S") ~dst:(node g "B")) in
  Alcotest.(check (float 1e-9)) "half via A" 500.
    loads.Ecmp.offered_bps.(Link.id_to_int sa.Link.id);
  Alcotest.(check (float 1e-9)) "half via B" 500.
    loads.Ecmp.offered_bps.(Link.id_to_int sb.Link.id);
  Alcotest.(check (float 1e-9)) "all delivered" 1000. loads.Ecmp.delivered_bps;
  Alcotest.(check (float 1e-9)) "nothing unrouted" 0. loads.Ecmp.unrouted_bps

let test_ecmp_single_path_matches_tree () =
  (* With unequal costs there is a unique shortest path: ECMP = SPF. *)
  let g = square () in
  let sa = Option.get (Graph.find_link g ~src:(node g "S") ~dst:(node g "A")) in
  let cost lid = if Link.id_equal lid sa.Link.id then 25 else 10 in
  let tm = Traffic_matrix.create ~nodes:4 in
  Traffic_matrix.set tm ~src:(node g "S") ~dst:(node g "T") 1000.;
  let loads = Ecmp.spread g ~cost tm in
  let sb = Option.get (Graph.find_link g ~src:(node g "S") ~dst:(node g "B")) in
  Alcotest.(check (float 1e-9)) "everything via B" 1000.
    loads.Ecmp.offered_bps.(Link.id_to_int sb.Link.id);
  Alcotest.(check (float 1e-9)) "nothing via A" 0.
    loads.Ecmp.offered_bps.(Link.id_to_int sa.Link.id)

let test_split_fractions_sum_to_one () =
  let g = square () in
  let rspf = Reverse_spf.compute g ~cost:(constant_cost 10) (node g "T") in
  let fractions = Ecmp.split_fractions rspf ~src:(node g "S") in
  (* Each link's fraction, summed per "distance layer", is 1; the simplest
     invariant is that fractions into T sum to 1. *)
  let into_t =
    List.fold_left
      (fun acc (lid, f) ->
        let l = Graph.link g lid in
        if Node.equal l.Link.dst (node g "T") then acc +. f else acc)
      0. fractions
  in
  Alcotest.(check (float 1e-9)) "unit flow arrives" 1. into_t

(* Conservation on random graphs: total offered on links equals the
   demand-weighted expected hop count (each surviving bit of demand loads
   exactly [hops] links). *)
let prop_ecmp_conservation =
  QCheck2.Test.make ~name:"ecmp load = demand x expected hops" ~count:30
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 4 + Rng.int rng 10 in
      let g = Generators.ring_chord rng ~nodes ~chords:(Rng.int rng nodes) in
      let costs = Array.init (Graph.link_count g) (fun _ -> 1 + Rng.int rng 30) in
      let cost lid = costs.(Link.id_to_int lid) in
      let tm = Traffic_matrix.gravity rng ~nodes ~total_bps:10_000. in
      let loads = Ecmp.spread g ~cost tm in
      let total_on_links = Array.fold_left ( +. ) 0. loads.Ecmp.offered_bps in
      let expected = ref 0. in
      Traffic_matrix.iter tm (fun ~src ~dst demand ->
          let rspf = Reverse_spf.compute g ~cost dst in
          match Ecmp.expectation rspf ~link_delay_s:(fun _ -> 0.) src with
          | Some e -> expected := !expected +. (demand *. e.Ecmp.expected_hops)
          | None -> ());
      let expected = !expected in
      Float.abs (total_on_links -. expected) < 1e-6 *. Float.max 1. expected)

let test_expectation_square () =
  let g = square () in
  let rspf = Reverse_spf.compute g ~cost:(constant_cost 10) (node g "T") in
  match Ecmp.expectation rspf ~link_delay_s:(fun _ -> 0.01) (node g "S") with
  | Some e ->
    Alcotest.(check (float 1e-9)) "two hops either way" 2. e.Ecmp.expected_hops;
    Alcotest.(check (float 1e-9)) "20ms" 0.02 e.Ecmp.expected_delay_s;
    Alcotest.(check (float 1e-9)) "lossless" 1. e.Ecmp.delivery_fraction
  | None -> Alcotest.fail "reachable"

let test_expectation_loss_compounds () =
  let g = square () in
  let rspf = Reverse_spf.compute g ~cost:(constant_cost 10) (node g "T") in
  match
    Ecmp.expectation ~link_loss:(fun _ -> 0.1) rspf
      ~link_delay_s:(fun _ -> 0.) (node g "S")
  with
  | Some e ->
    Alcotest.(check (float 1e-9)) "two 10% losses" 0.81 e.Ecmp.delivery_fraction
  | None -> Alcotest.fail "reachable"

(* --- Yen's k shortest paths --- *)

let test_yen_first_is_dijkstra () =
  let g = square () in
  let cost = constant_cost 10 in
  let src = node g "S" and dst = node g "T" in
  match (Yen.shortest g ~cost ~src ~dst, Yen.k_shortest g ~cost ~src ~dst ~k:1) with
  | Some best, [ only ] -> Alcotest.(check int) "same cost" best.Yen.cost only.Yen.cost
  | _ -> Alcotest.fail "expected paths"

let test_yen_enumerates_diamond () =
  let g = square () in
  let paths = Yen.k_shortest g ~cost:(constant_cost 10) ~src:(node g "S")
      ~dst:(node g "T") ~k:5 in
  (* S-A-T, S-B-T at 20; then nothing shorter than the 4-hop backtracking
     ones, which are not loopless here (S-A-T requires revisiting): the
     square has exactly 2 loopless S->T paths. *)
  Alcotest.(check int) "two loopless paths" 2 (List.length paths);
  List.iter
    (fun p -> Alcotest.(check int) "both cost 20" 20 p.Yen.cost)
    paths

let test_yen_ordering_and_distinct () =
  let rng = Rng.create 5 in
  let g = Generators.ring_chord rng ~nodes:10 ~chords:8 in
  let costs = Array.init (Graph.link_count g) (fun _ -> 1 + Rng.int rng 20) in
  let cost lid = costs.(Link.id_to_int lid) in
  let paths =
    Yen.k_shortest g ~cost ~src:(Node.of_int 0) ~dst:(Node.of_int 5) ~k:6
  in
  Alcotest.(check bool) "several alternates found" true (List.length paths >= 3);
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a.Yen.cost <= b.Yen.cost && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cost ordered" true (nondecreasing paths);
  let id_lists =
    List.map (fun p -> List.map (fun (l : Link.t) -> Link.id_to_int l.Link.id) p.Yen.links) paths
  in
  Alcotest.(check int) "all distinct" (List.length paths)
    (List.length (List.sort_uniq compare id_lists))

let test_yen_paths_loopless () =
  let rng = Rng.create 9 in
  let g = Generators.ring_chord rng ~nodes:12 ~chords:10 in
  let paths =
    Yen.k_shortest g ~cost:(constant_cost 7) ~src:(Node.of_int 1)
      ~dst:(Node.of_int 7) ~k:8
  in
  List.iter
    (fun p ->
      let nodes = Yen.path_nodes p ~src:(Node.of_int 1) in
      let ids = List.map Node.to_int nodes in
      Alcotest.(check int) "no repeated node" (List.length ids)
        (List.length (List.sort_uniq Int.compare ids));
      (* Path is actually connected and ends at the destination. *)
      let rec connected = function
        | (a : Link.t) :: (b :: _ as rest) ->
          Node.equal a.Link.dst b.Link.src && connected rest
        | _ -> true
      in
      Alcotest.(check bool) "links chain" true (connected p.Yen.links))
    paths

let test_yen_validation () =
  let g = square () in
  Alcotest.(check bool) "k < 1 raises" true
    (try
       ignore (Yen.k_shortest g ~cost:(constant_cost 1) ~src:(node g "S")
                 ~dst:(node g "T") ~k:0);
       false
     with Invalid_argument _ -> true)

(* Exhaustive ground truth: all loopless paths by DFS on a small graph. *)
let all_loopless_paths g ~cost ~src ~dst =
  let paths = ref [] in
  let rec dfs node visited acc_links acc_cost =
    if Node.equal node dst then paths := (List.rev acc_links, acc_cost) :: !paths
    else
      List.iter
        (fun (l : Link.t) ->
          let j = Node.to_int l.Link.dst in
          if not (List.mem j visited) then
            dfs l.Link.dst (j :: visited) (l :: acc_links)
              (acc_cost + cost l.Link.id))
        (Graph.out_links g node)
  in
  dfs src [ Node.to_int src ] [] 0;
  List.sort
    (fun (la, ca) (lb, cb) ->
      match Int.compare ca cb with
      | 0 ->
        compare
          (List.map (fun (l : Link.t) -> Link.id_to_int l.Link.id) la)
          (List.map (fun (l : Link.t) -> Link.id_to_int l.Link.id) lb)
      | c -> c)
    !paths

let prop_yen_matches_exhaustive =
  QCheck2.Test.make ~name:"yen = exhaustive enumeration on small graphs"
    ~count:40
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 4 + Rng.int rng 3 in
      let g = Generators.ring_chord rng ~nodes ~chords:(Rng.int rng 3) in
      let costs = Array.init (Graph.link_count g) (fun _ -> 1 + Rng.int rng 9) in
      let cost lid = costs.(Link.id_to_int lid) in
      let src = Node.of_int 0 and dst = Node.of_int (nodes - 1) in
      let truth = all_loopless_paths g ~cost ~src ~dst in
      let k = List.length truth in
      let yen = Yen.k_shortest g ~cost ~src ~dst ~k in
      (* Same number of paths and identical cost multiset. *)
      List.length yen = k
      && List.map (fun p -> p.Yen.cost) yen = List.map snd truth)

(* --- The §4.5 scenario: one large flow, two parallel paths --- *)

let test_large_flow_single_path_limit_cycles () =
  let g = square () in
  let tm = Traffic_matrix.create ~nodes:4 in
  (* 1.4x the capacity of one path: indivisible under single-path routing. *)
  Traffic_matrix.set tm ~src:(node g "S") ~dst:(node g "T") 78_400.;
  let single = Flow_sim.create g Metric.Hn_spf tm in
  ignore (Flow_sim.run single ~periods:30);
  let multi = Multipath_sim.create g Metric.Hn_spf tm in
  ignore (Multipath_sim.run multi ~periods:30);
  let single_delivered =
    let kept = List.filteri (fun i _ -> i >= 10) (Flow_sim.history single) in
    List.fold_left (fun acc s -> acc +. s.Flow_sim.delivered_bps) 0. kept
    /. float_of_int (List.length kept)
  in
  let multi_delivered = Multipath_sim.mean_delivered_bps multi ~skip:10 in
  (* Single path can carry at most one link (56k, less under loss);
     ECMP splits 0.7/0.7 across both paths and carries nearly everything. *)
  Alcotest.(check bool)
    (Printf.sprintf "multipath carries more (%.0f vs %.0f bps)" multi_delivered
       single_delivered)
    true
    (multi_delivered > 1.25 *. single_delivered);
  let sa = Option.get (Graph.find_link g ~src:(node g "S") ~dst:(node g "A")) in
  let sb = Option.get (Graph.find_link g ~src:(node g "S") ~dst:(node g "B")) in
  let ua = Multipath_sim.link_utilization multi sa.Link.id in
  let ub = Multipath_sim.link_utilization multi sb.Link.id in
  Alcotest.(check bool)
    (Printf.sprintf "balanced split (%.2f / %.2f)" ua ub)
    true
    (Float.abs (ua -. ub) < 0.05 && ua > 0.5)

let test_multipath_sim_light_load_lossless () =
  let g = square () in
  let tm = Traffic_matrix.create ~nodes:4 in
  Traffic_matrix.set tm ~src:(node g "S") ~dst:(node g "T") 10_000.;
  let sim = Multipath_sim.create g Metric.Hn_spf tm in
  let stats = List.rev (Multipath_sim.run sim ~periods:10) in
  let last = List.hd stats in
  Alcotest.(check bool) "nearly lossless" true
    (last.Multipath_sim.dropped_bps < 1.);
  Alcotest.(check bool) "delay ~ 2 hops of 56k" true
    (last.Multipath_sim.mean_delay_s > 0.02 && last.Multipath_sim.mean_delay_s < 0.08)

(* Every field of every period, floats as exact hex, so the update
   accounting (how many origins flood, and the bits their floods carry)
   is pinned bit for bit along with the load and delay figures. *)
let stats_digest stats =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (s : Multipath_sim.period_stats) ->
      Printf.bprintf buf "%h %h %h %h %h %d %h %h\n" s.time_s s.offered_bps
        s.delivered_bps s.dropped_bps s.mean_delay_s s.updates s.update_bits
        s.max_utilization)
    stats;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_multipath_sim_update_accounting () =
  let g = square () in
  let tm = Traffic_matrix.create ~nodes:4 in
  Traffic_matrix.set tm ~src:(node g "S") ~dst:(node g "T") 78_400.;
  let square_stats =
    Multipath_sim.run (Multipath_sim.create g Metric.Hn_spf tm) ~periods:30
  in
  Alcotest.(check string) "square, HN-SPF, 30 periods"
    "c5f44b1ff348c6598c3b72520a411a86" (stats_digest square_stats);
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let peak_stats =
    Multipath_sim.run (Multipath_sim.create g Metric.D_spf tm) ~periods:20
  in
  (* The digest only pins the grouping if several origins flood at once. *)
  Alcotest.(check bool) "several origins flood in one period" true
    (List.exists (fun s -> s.Multipath_sim.updates > 1) peak_stats);
  Alcotest.(check string) "ARPANET peak, D-SPF, 20 periods"
    "d8acad375196b9f5a28e8c0e067ac4d3" (stats_digest peak_stats)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_multipath"
    [ ( "reverse_spf",
        [ Alcotest.test_case "distances" `Quick test_reverse_distances;
          Alcotest.test_case "matches forward" `Quick test_reverse_matches_forward;
          Alcotest.test_case "next hop sets" `Quick test_next_hop_sets;
          Alcotest.test_case "descending order" `Quick test_descending_order ] );
      ( "ecmp",
        [ Alcotest.test_case "even split" `Quick test_ecmp_even_split;
          Alcotest.test_case "single path" `Quick test_ecmp_single_path_matches_tree;
          Alcotest.test_case "fractions" `Quick test_split_fractions_sum_to_one;
          Alcotest.test_case "expectation" `Quick test_expectation_square;
          Alcotest.test_case "loss compounds" `Quick test_expectation_loss_compounds
        ]
        @ qsuite [ prop_ecmp_conservation ] );
      ( "yen",
        [ Alcotest.test_case "first = dijkstra" `Quick test_yen_first_is_dijkstra;
          Alcotest.test_case "diamond" `Quick test_yen_enumerates_diamond;
          Alcotest.test_case "ordering/distinct" `Quick test_yen_ordering_and_distinct;
          Alcotest.test_case "loopless" `Quick test_yen_paths_loopless;
          Alcotest.test_case "validation" `Quick test_yen_validation ]
        @ qsuite [ prop_yen_matches_exhaustive ] );
      ( "multipath_sim (§4.5)",
        [ Alcotest.test_case "large flow" `Quick
            test_large_flow_single_path_limit_cycles;
          Alcotest.test_case "light load" `Quick
            test_multipath_sim_light_load_lossless;
          Alcotest.test_case "update accounting" `Quick
            test_multipath_sim_update_accounting ] ) ]
