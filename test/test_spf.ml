(* Unit and property tests for the routing_spf library. *)

open Routing_topology
module Rq = Routing_spf.Radix_queue
module Dijkstra = Routing_spf.Dijkstra
module Spf_tree = Routing_spf.Spf_tree
module Spf_repair = Routing_spf.Spf_repair
module Routing_table = Routing_spf.Routing_table
module Rng = Routing_stats.Rng

(* --- radix queue --- *)

let test_radix_ordering () =
  let q = Rq.create () in
  List.iter
    (fun (k, t) -> Rq.push q ~key:k ~tie:t (k * 10))
    [ (5, 0); (1, 2); (1, 1); (3, 0); (2, 0) ];
  Alcotest.(check int) "length" 5 (Rq.length q);
  let order = List.init 5 (fun _ -> Option.get (Rq.pop_min q)) in
  Alcotest.(check bool) "lexicographic (key, tie)" true
    (order = [ (1, 1, 10); (1, 2, 10); (2, 0, 20); (3, 0, 30); (5, 0, 50) ]);
  Alcotest.(check bool) "empty" true (Rq.is_empty q);
  Alcotest.(check int) "floor follows pops" 5 (Rq.last q)

let test_radix_rejects_non_monotone () =
  let q = Rq.create () in
  Rq.push q ~key:10 ~tie:0 1;
  (match Rq.pop_min q with
  | Some (10, 0, 1) -> ()
  | _ -> Alcotest.fail "pop should return the pushed entry");
  Rq.push q ~key:10 ~tie:1 2;
  (* 10 equals the floor: allowed.  9 is below it: rejected. *)
  Alcotest.check_raises "below the floor"
    (Invalid_argument "Radix_queue.push: key 9 below the monotone floor 10")
    (fun () -> Rq.push q ~key:9 ~tie:0 3)

let test_radix_clear () =
  let q = Rq.create () in
  Rq.push q ~key:7 ~tie:0 0;
  ignore (Rq.pop_min q);
  Rq.clear q;
  Alcotest.(check bool) "cleared" true (Rq.is_empty q);
  Alcotest.(check int) "floor reset" 0 (Rq.last q);
  (* After clear the floor is gone, so small keys are admissible again. *)
  Rq.push q ~key:1 ~tie:0 9;
  Alcotest.(check bool) "reusable" true (Rq.pop_min q = Some (1, 0, 9))

(* The queue only promises anything for monotone sequences (every push at
   or above the last popped key) — exactly what Dijkstra and the repair
   loop produce.  Against a model priority queue, a list of
   (key, tie, value) entries kept sorted, random interleavings of pushes
   and pops must agree pop for pop.  Ties are made unique so the
   comparison is exact, not set-valued. *)
let prop_radix_matches_priority_queue =
  QCheck2.Test.make ~name:"radix queue = priority queue (monotone ops)"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (pair (option (int_range 0 2000)) (int_range 0 9)))
    (fun ops ->
      let q = Rq.create () in
      let model = ref [] in
      let pop_model () =
        match !model with
        | [] -> None
        | e :: rest ->
          model := rest;
          Some e
      in
      let last = ref 0 in
      let ok = ref true in
      List.iteri
        (fun i (op, r) ->
          match op with
          | Some delta ->
            let key = !last + delta and tie = (r * 1_000_000) + i in
            Rq.push q ~key ~tie i;
            model := List.merge compare [ (key, tie, i) ] !model
          | None -> (
            match (Rq.pop_min q, pop_model ()) with
            | None, None -> ()
            | Some ((k, _, _) as e), Some e' ->
              last := k;
              if e <> e' then ok := false
            | _ -> ok := false))
        ops;
      let rec drain () =
        match (Rq.pop_min q, pop_model ()) with
        | None, None -> ()
        | Some e, Some e' -> if e = e' then drain () else ok := false
        | _ -> ok := false
      in
      drain ();
      !ok)

(* --- helpers --- *)

let diamond () =
  (* A - B - D and A - C - D, plus a direct A - D. *)
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "B" "D" in
  let _ = Builder.trunk b Line_type.T56 "A" "C" in
  let _ = Builder.trunk b Line_type.T56 "C" "D" in
  let _ = Builder.trunk b Line_type.T56 "A" "D" in
  Builder.build b

let node g name = Option.get (Graph.node_by_name g name)

let constant_cost c = fun _ -> c

let random_graph seed =
  let rng = Rng.create seed in
  let nodes = 4 + Rng.int rng 12 in
  Generators.ring_chord rng ~nodes ~chords:(Rng.int rng (2 * nodes))

let random_costs seed g =
  let rng = Rng.create (seed + 7919) in
  let costs = Array.init (Graph.link_count g) (fun _ -> 1 + Rng.int rng 60) in
  fun lid -> costs.(Link.id_to_int lid)

(* --- Dijkstra --- *)

let test_dijkstra_direct_wins () =
  let g = diamond () in
  let tree = Dijkstra.compute g ~cost:(constant_cost 10) (node g "A") in
  Alcotest.(check int) "direct cost" 10 (Spf_tree.dist tree (node g "D"));
  Alcotest.(check int) "one hop" 1 (Spf_tree.hops tree (node g "D"));
  Alcotest.(check int) "root dist" 0 (Spf_tree.dist tree (node g "A"))

let test_dijkstra_reroutes_around_expensive_link () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:d) in
  let cost lid = if Link.id_equal lid direct.Link.id then 50 else 10 in
  let tree = Dijkstra.compute g ~cost a in
  Alcotest.(check int) "two-hop detour" 20 (Spf_tree.dist tree d);
  Alcotest.(check int) "hops" 2 (Spf_tree.hops tree d);
  Alcotest.(check bool) "avoids direct link" false
    (Spf_tree.uses_link tree d direct.Link.id)

let test_dijkstra_tie_break_neutral_deterministic () =
  let g = diamond () in
  let a = node g "A" in
  let t1 = Dijkstra.compute g ~cost:(constant_cost 7) a in
  let t2 = Dijkstra.compute g ~cost:(constant_cost 7) a in
  Graph.iter_nodes g (fun n ->
      Alcotest.(check bool) "same parents" true
        (match (Spf_tree.parent_link t1 n, Spf_tree.parent_link t2 n) with
        | None, None -> true
        | Some l1, Some l2 -> Link.id_equal l1.Link.id l2.Link.id
        | _ -> false))

let test_dijkstra_favor_avoid () =
  (* A-B-D vs A-C-D: equal cost; favoring/avoiding a link must decide. *)
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "B" "D" in
  let _ = Builder.trunk b Line_type.T56 "A" "C" in
  let _ = Builder.trunk b Line_type.T56 "C" "D" in
  let g = Builder.build b in
  let a = node g "A" and d = node g "D" in
  let bd = Option.get (Graph.find_link g ~src:(node g "B") ~dst:d) in
  let favor = Dijkstra.compute ~tie_break:(`Favor bd.Link.id) g
      ~cost:(constant_cost 30) a in
  Alcotest.(check bool) "favored link used" true
    (Spf_tree.uses_link favor d bd.Link.id);
  let avoid = Dijkstra.compute ~tie_break:(`Avoid bd.Link.id) g
      ~cost:(constant_cost 30) a in
  Alcotest.(check bool) "avoided link not used" false
    (Spf_tree.uses_link avoid d bd.Link.id);
  (* Tie-breaking must not change distances. *)
  Alcotest.(check int) "same distance" (Spf_tree.dist favor d) (Spf_tree.dist avoid d)

let test_dijkstra_enabled () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:d) in
  let tree =
    Dijkstra.compute
      ~enabled:(fun lid -> not (Link.id_equal lid direct.Link.id))
      g ~cost:(constant_cost 10) a
  in
  Alcotest.(check int) "routes around down link" 20 (Spf_tree.dist tree d)

let test_dijkstra_unreachable () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "C" "D" in
  let g = Builder.build b in
  let tree = Dijkstra.compute g ~cost:(constant_cost 5) (node g "A") in
  Alcotest.(check bool) "C unreached" false (Spf_tree.reached tree (node g "C"));
  Alcotest.(check int) "dist max_int" max_int (Spf_tree.dist tree (node g "C"));
  Alcotest.check_raises "path raises"
    (Invalid_argument "Spf_tree.path: unreachable") (fun () ->
      ignore (Spf_tree.path tree (node g "C")))

let test_dijkstra_rejects_bad_cost () =
  let g = diamond () in
  Alcotest.(check bool) "raises on zero cost" true
    (try
       ignore (Dijkstra.compute g ~cost:(constant_cost 0) (node g "A"));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "raises above max" true
    (try
       ignore (Dijkstra.compute g ~cost:(constant_cost 255) (node g "A"));
       false
     with Invalid_argument _ -> true)

(* Shortest-path distances must satisfy the Bellman optimality condition:
   for every link (u,v), dist(v) <= dist(u) + cost(u,v), with equality for
   tree links. *)
let prop_dijkstra_optimality =
  QCheck2.Test.make ~name:"dijkstra satisfies Bellman conditions" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let cost = random_costs seed g in
      let tree = Dijkstra.compute g ~cost (Node.of_int 0) in
      let ok = ref true in
      Graph.iter_links g (fun l ->
          let du = Spf_tree.dist tree l.Link.src in
          let dv = Spf_tree.dist tree l.Link.dst in
          if du <> max_int && dv > du + cost l.Link.id then ok := false);
      Graph.iter_nodes g (fun n ->
          match Spf_tree.parent_link tree n with
          | None -> ()
          | Some l ->
            let du = Spf_tree.dist tree l.Link.src in
            if Spf_tree.dist tree n <> du + cost l.Link.id then ok := false);
      !ok)

(* Distributed Bellman-Ford with static costs converges to the same
   distances SPF computes — the two generations of ARPANET routing agree
   when nothing moves. *)
let prop_dijkstra_agrees_with_bellman_ford =
  QCheck2.Test.make ~name:"dijkstra = converged bellman-ford" ~count:30
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let cost = random_costs seed g in
      let bf = Routing_bellman.Bellman_ford.create g in
      (match
         Routing_bellman.Bellman_ford.rounds_to_converge bf ~link_cost:cost
           ~max_rounds:(2 * Graph.node_count g)
       with
      | None -> Alcotest.fail "bellman-ford did not converge on static costs"
      | Some _ -> ());
      let ok = ref true in
      Graph.iter_nodes g (fun src ->
          let tree = Dijkstra.compute g ~cost src in
          Graph.iter_nodes g (fun dst ->
              let bf_dist =
                Routing_bellman.Bellman_ford.distance bf ~from:src dst
              in
              let spf_dist =
                if Spf_tree.reached tree dst then Some (Spf_tree.dist tree dst)
                else None
              in
              let spf_dist = if Node.equal src dst then Some 0 else spf_dist in
              if bf_dist <> spf_dist then ok := false));
      !ok)

(* Hereditary property (§4.1): every subpath of a shortest path is a
   shortest path — checked via next_hop consistency. *)
let prop_shortest_paths_hereditary =
  QCheck2.Test.make ~name:"subpaths of shortest paths are shortest" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let cost = random_costs seed g in
      let tree = Dijkstra.compute g ~cost (Node.of_int 0) in
      let ok = ref true in
      Graph.iter_nodes g (fun dst ->
          if Spf_tree.reached tree dst then begin
            let along = ref 0 in
            List.iter
              (fun (l : Link.t) ->
                along := !along + cost l.Link.id;
                if Spf_tree.dist tree l.Link.dst <> !along then ok := false)
              (Spf_tree.path tree dst)
          end);
      !ok)

(* --- Spf_tree accessors --- *)

let test_tree_paths_and_next_hop () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:d) in
  let cost lid = if Link.id_equal lid direct.Link.id then 100 else 10 in
  let tree = Dijkstra.compute g ~cost a in
  let path = Spf_tree.path tree d in
  Alcotest.(check int) "path length" 2 (List.length path);
  (match Spf_tree.next_hop tree d with
  | Some l -> Alcotest.(check bool) "next hop from A" true (Node.equal l.Link.src a)
  | None -> Alcotest.fail "expected next hop");
  Alcotest.(check bool) "no next hop to self" true (Spf_tree.next_hop tree a = None);
  let via = Spf_tree.destinations_via tree (List.hd path).Link.id in
  Alcotest.(check bool) "destinations_via includes D" true
    (List.exists (Node.equal d) via)

(* --- Incremental SPF (§2.2): in-place tree repair --- *)

(* Move [lid] to cost [c] in [costs], patch the weight table to match and
   repair [tree] in place, as a hop-by-hop DES node does on receipt.
   Returns the nodes re-settled. *)
let set_cost s g ~costs ~weights ~tree lid c =
  let k = Link.id_to_int lid in
  costs.(k) <- c;
  let old = weights.(k) in
  let w = Dijkstra.link_weight ~cost:(fun l -> costs.(Link.id_to_int l)) lid in
  weights.(k) <- w;
  Spf_repair.repair s g ~tree ~weights
    ~changes:(if w = old then [] else [ (lid, old, w) ])

(* A node's own weight table and tree on [costs]. *)
let view g costs root =
  let weights =
    Dijkstra.compute_weights g ~cost:(fun l -> costs.(Link.id_to_int l))
  in
  (weights, Dijkstra.compute_flat g ~weights root)

let fresh g costs root =
  Dijkstra.compute g ~cost:(fun l -> costs.(Link.id_to_int l)) root

let test_incremental_ignores_irrelevant_increase () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let costs = Array.make (Graph.link_count g) 10 in
  let weights, tree = view g costs a in
  (* Direct link is in the tree; a non-tree link's increase must be free. *)
  let non_tree =
    Graph.links g
    |> List.find (fun (l : Link.t) ->
           Node.equal l.Link.src d && not (Node.equal l.Link.dst a))
  in
  let resettled =
    set_cost (Spf_repair.scratch ()) g ~costs ~weights ~tree non_tree.Link.id
      200
  in
  Alcotest.(check int) "nothing re-settled" 0 resettled;
  Alcotest.(check bool) "tree still exact" true
    (Spf_tree.equal tree (fresh g costs a))

let test_incremental_tracks_change () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:d) in
  let costs = Array.make (Graph.link_count g) 10 in
  let weights, tree = view g costs a in
  let s = Spf_repair.scratch () in
  Alcotest.(check int) "initial" 10 (Spf_tree.dist tree d);
  ignore (set_cost s g ~costs ~weights ~tree direct.Link.id 50);
  Alcotest.(check int) "after increase, detour" 20 (Spf_tree.dist tree d);
  ignore (set_cost s g ~costs ~weights ~tree direct.Link.id 5);
  Alcotest.(check int) "after decrease, direct again" 5 (Spf_tree.dist tree d)

let prop_incremental_matches_full =
  QCheck2.Test.make ~name:"incremental = full recompute over update sequences"
    ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed * 31 + 1) in
      let costs = Array.init (Graph.link_count g) (fun _ -> 1 + Rng.int rng 60) in
      let root = Node.of_int (Rng.int rng (Graph.node_count g)) in
      let weights, tree = view g costs root in
      let s = Spf_repair.scratch () in
      let ok = ref true in
      for _ = 1 to 30 do
        let lid = Link.id_of_int (Rng.int rng (Graph.link_count g)) in
        ignore (set_cost s g ~costs ~weights ~tree lid (1 + Rng.int rng 60));
        if not (Spf_tree.equal tree (fresh g costs root)) then ok := false
      done;
      !ok)

(* §2.2's motivation quantified: most cost changes on a mesh do not touch
   a given node's tree, so repair re-settles nothing for them. *)
let test_incremental_skip_rate () =
  let g = Routing_topology.Arpanet.topology () in
  let rng = Rng.create 3 in
  let root = Node.of_int 0 in
  let costs = Array.make (Graph.link_count g) 30 in
  let weights, tree = view g costs root in
  let s = Spf_repair.scratch () in
  let untouched = ref 0 in
  for _ = 1 to 500 do
    let lid = Rng.int rng (Graph.link_count g) in
    (* Increases only: the provable-skip case. *)
    let c = min 254 (costs.(lid) + 1 + Rng.int rng 40) in
    if set_cost s g ~costs ~weights ~tree (Link.id_of_int lid) c = 0 then
      incr untouched
  done;
  Alcotest.(check bool)
    (Printf.sprintf "majority of increases re-settle nothing (%d/500)"
       !untouched)
    true
    (* ~39%% of links are on the probe tree, so ~61%% of random increases
       are provably irrelevant. *)
    (!untouched > 250);
  Alcotest.(check bool) "tree still exact" true
    (Spf_tree.equal tree (fresh g costs root))

(* --- One repair scratch for every node's tree --- *)

(* The hop-by-hop DES keeps a weight table and tree per node but repairs
   them all through one scratch, receipt after receipt.  The scratch's
   epoch stamps must keep one tree's repair from leaking into the next,
   and it must resize across graphs: here one scratch outlives every
   generated case.  Each update re-costs all out-links of one node, as a
   routing update does, and every node's repaired tree must equal a
   from-scratch Dijkstra afterwards. *)
let prop_shared_scratch_matches_full =
  let s = Spf_repair.scratch () in
  QCheck2.Test.make ~name:"one scratch, every root = full recompute" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create ((seed * 17) + 5) in
      let costs = Array.init (Graph.link_count g) (fun _ -> 1 + Rng.int rng 60) in
      let views =
        Array.init (Graph.node_count g) (fun r -> view g costs (Node.of_int r))
      in
      let ok = ref true in
      for _ = 1 to 15 do
        let origin = Node.of_int (Rng.int rng (Graph.node_count g)) in
        let update =
          List.map
            (fun (l : Link.t) -> (l.Link.id, 1 + Rng.int rng 60))
            (Graph.out_links g origin)
        in
        List.iter (fun (lid, c) -> costs.(Link.id_to_int lid) <- c) update;
        Array.iteri
          (fun r (weights, tree) ->
            let changes =
              List.filter_map
                (fun (lid, _) ->
                  let k = Link.id_to_int lid in
                  let old = weights.(k) in
                  let w =
                    Dijkstra.link_weight
                      ~cost:(fun l -> costs.(Link.id_to_int l))
                      lid
                  in
                  weights.(k) <- w;
                  if w = old then None else Some (lid, old, w))
                update
            in
            ignore (Spf_repair.repair s g ~tree ~weights ~changes);
            if not (Spf_tree.equal tree (fresh g costs (Node.of_int r))) then
              ok := false)
          views
      done;
      !ok)

(* --- Routing tables --- *)

let test_routing_table_traces () =
  let g = diamond () in
  let tables =
    Array.init (Graph.node_count g) (fun i ->
        Routing_table.of_tree
          (Dijkstra.compute g ~cost:(constant_cost 10) (Node.of_int i)))
  in
  let a = node g "A" and d = node g "D" in
  (match Routing_table.trace_route tables ~src:a ~dst:d with
  | Routing_table.Arrived links ->
    Alcotest.(check int) "one hop direct" 1 (List.length links)
  | _ -> Alcotest.fail "should arrive");
  Alcotest.(check int) "reachable count" 3
    (Routing_table.reachable_count tables.(Node.to_int a))

let prop_consistent_tables_are_loop_free =
  QCheck2.Test.make ~name:"consistent SPF tables never loop" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let cost = random_costs seed g in
      let tables =
        Array.init (Graph.node_count g) (fun i ->
            Routing_table.of_tree (Dijkstra.compute g ~cost (Node.of_int i)))
      in
      let ok = ref true in
      Graph.iter_nodes g (fun src ->
          Graph.iter_nodes g (fun dst ->
              if not (Node.equal src dst) then
                match Routing_table.trace_route tables ~src ~dst with
                | Routing_table.Arrived _ -> ()
                | Routing_table.Loop _ | Routing_table.Black_hole _ ->
                  ok := false));
      !ok)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_spf"
    [ ( "radix_queue",
        [ Alcotest.test_case "ordering" `Quick test_radix_ordering;
          Alcotest.test_case "monotone floor" `Quick
            test_radix_rejects_non_monotone;
          Alcotest.test_case "clear" `Quick test_radix_clear ]
        @ qsuite [ prop_radix_matches_priority_queue ] );
      ( "dijkstra",
        [ Alcotest.test_case "direct wins" `Quick test_dijkstra_direct_wins;
          Alcotest.test_case "reroutes" `Quick
            test_dijkstra_reroutes_around_expensive_link;
          Alcotest.test_case "deterministic ties" `Quick
            test_dijkstra_tie_break_neutral_deterministic;
          Alcotest.test_case "favor/avoid" `Quick test_dijkstra_favor_avoid;
          Alcotest.test_case "enabled" `Quick test_dijkstra_enabled;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "bad cost" `Quick test_dijkstra_rejects_bad_cost ]
        @ qsuite
            [ prop_dijkstra_optimality;
              prop_dijkstra_agrees_with_bellman_ford;
              prop_shortest_paths_hereditary ] );
      ( "spf_tree",
        [ Alcotest.test_case "paths and next hop" `Quick
            test_tree_paths_and_next_hop ] );
      ( "incremental",
        [ Alcotest.test_case "ignores irrelevant" `Quick
            test_incremental_ignores_irrelevant_increase;
          Alcotest.test_case "tracks change" `Quick test_incremental_tracks_change;
          Alcotest.test_case "skip rate (§2.2)" `Quick test_incremental_skip_rate ]
        @ qsuite [ prop_incremental_matches_full ] );
      ("repair_scratch", qsuite [ prop_shared_scratch_matches_full ]);
      ( "routing_table",
        [ Alcotest.test_case "traces" `Quick test_routing_table_traces ]
        @ qsuite [ prop_consistent_tables_are_loop_free ] ) ]
