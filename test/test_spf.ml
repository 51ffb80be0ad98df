(* Unit and property tests for the routing_spf library. *)

open Routing_topology
module H = Routing_spf.Int_heap
module Dijkstra = Routing_spf.Dijkstra
module Spf_tree = Routing_spf.Spf_tree
module Spf_repair = Routing_spf.Spf_repair
module Routing_table = Routing_spf.Routing_table
module Rng = Routing_stats.Rng

(* --- int heap --- *)

let pop q =
  let s = H.slot () in
  if H.pop_min_into q s then Some (s.H.key, s.H.tie, s.H.value) else None

let test_heap_ordering () =
  let q = H.create () in
  List.iter
    (fun (k, t) -> H.push q ~key:k ~tie:t (k * 10))
    [ (5, 0); (1, 2); (1, 1); (3, 0); (2, 0) ];
  Alcotest.(check int) "length" 5 (H.length q);
  let order = List.init 5 (fun _ -> Option.get (pop q)) in
  Alcotest.(check bool) "lexicographic (key, tie)" true
    (order = [ (1, 1, 10); (1, 2, 10); (2, 0, 20); (3, 0, 30); (5, 0, 50) ]);
  Alcotest.(check bool) "empty" true (H.is_empty q);
  Alcotest.(check bool) "empty pop" true (pop q = None)

let test_heap_clear () =
  let q = H.create () in
  H.push q ~key:7 ~tie:0 0;
  ignore (pop q);
  H.push q ~key:4 ~tie:1 1;
  H.push q ~key:9 ~tie:0 2;
  let capacity = H.capacity q in
  H.clear q;
  Alcotest.(check bool) "cleared" true (H.is_empty q);
  Alcotest.(check int) "capacity kept" capacity (H.capacity q);
  (* Cleared entries are gone; smaller keys than any popped are fine. *)
  H.push q ~key:1 ~tie:0 9;
  Alcotest.(check bool) "reusable" true (pop q = Some (1, 0, 9));
  Alcotest.(check bool) "nothing left" true (pop q = None)

(* Against a model priority queue, a list of (key, tie, value) entries
   kept sorted, random interleavings of pushes and pops must agree pop
   for pop.  Keys go up and down freely and are drawn from a narrow
   range, so exact (key, tie) duplicates are common; as in every caller,
   the value is a function of (key, tie), so duplicates are
   indistinguishable and the comparison is exact.  A second heap,
   reserved up front for the sequence's peak number of live entries,
   must pop the same entries without its columns ever growing. *)
let prop_heap_matches_sorted_model =
  QCheck2.Test.make ~name:"heap = sorted model (any keys)" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (frequency
           [ (3, map Option.some (pair (int_range (-20) 40) (int_range 0 4)));
             (2, return None) ]))
    (fun ops ->
      let value key tie = (key * 8) + tie in
      let q = H.create () in
      let peak =
        let live = ref 0 and peak = ref 0 in
        List.iter
          (fun op ->
            (match op with
            | Some _ -> incr live
            | None -> if !live > 0 then decr live);
            peak := max !peak !live)
          ops;
        !peak
      in
      let reserved = H.create () in
      H.reserve reserved peak;
      let capacity = H.capacity reserved in
      let model = ref [] in
      let pop_model () =
        match !model with
        | [] -> None
        | e :: rest ->
          model := rest;
          Some e
      in
      let ok = ref true in
      let pop_all () =
        let from_reserved = pop reserved in
        let e = pop q and e' = pop_model () in
        if e <> e' || from_reserved <> e' then ok := false;
        e' <> None
      in
      List.iter
        (function
          | Some (key, tie) ->
            H.push q ~key ~tie (value key tie);
            H.push reserved ~key ~tie (value key tie);
            model := List.merge compare [ (key, tie, value key tie) ] !model
          | None -> ignore (pop_all ()))
        ops;
      if H.length q <> List.length !model then ok := false;
      while !ok && pop_all () do
        ()
      done;
      !ok && H.is_empty q && H.capacity reserved = capacity)

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

let test_dijkstra_ties_deterministic () =
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
   tree links, and every reached node's hop count is its path's length:
   the decode from composite distances must give back both. *)
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
      Graph.iter_nodes g (fun n ->
          if Spf_tree.reached tree n
             && Spf_tree.hops tree n <> List.length (Spf_tree.path tree n)
          then ok := false);
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

(* A reference with no queue at all: the O(N²) selection loop settles
   the unsettled node of least composite distance, relaxing every link
   out of it, and each reached node's parent is then the lowest-id
   enabled link achieving its distance.  Costs 1–3 make equal-cost paths
   (and so the tie rule) common, and random links are disabled.  The
   tree [compute_flat] builds must match on every node: the lowest-id
   tie rule is what makes a tree independent of the queue it ran on. *)
let prop_dijkstra_matches_selection_loop =
  QCheck2.Test.make ~name:"dijkstra = queue-free reference" ~count:200
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create ((seed * 13) + 3) in
      let nl = Graph.link_count g and n = Graph.node_count g in
      let costs = Array.init nl (fun _ -> 1 + Rng.int rng 3) in
      let up = Array.init nl (fun _ -> Rng.int rng 5 > 0) in
      let weights =
        Dijkstra.compute_weights
          ~enabled:(fun l -> up.(Link.id_to_int l))
          g
          ~cost:(fun l -> costs.(Link.id_to_int l))
      in
      let src l = Node.to_int (Graph.link g (Link.id_of_int l)).Link.src in
      let dst l = Node.to_int (Graph.link g (Link.id_of_int l)).Link.dst in
      let root = Rng.int rng n in
      let dist = Array.make n max_int and settled = Array.make n false in
      dist.(root) <- 0;
      for _ = 1 to n do
        let u = ref (-1) in
        for v = 0 to n - 1 do
          if (not settled.(v)) && dist.(v) < max_int
             && (!u < 0 || dist.(v) < dist.(!u))
          then u := v
        done;
        if !u >= 0 then begin
          settled.(!u) <- true;
          for l = 0 to nl - 1 do
            if weights.(l) >= 0 && src l = !u then
              dist.(dst l) <- min dist.(dst l) (dist.(!u) + weights.(l))
          done
        end
      done;
      let tree = Dijkstra.compute_flat g ~weights (Node.of_int root) in
      let comp = Spf_tree.unsafe_composite tree in
      let ok = ref true in
      for v = 0 to n - 1 do
        let nv = Node.of_int v in
        if comp.(v) <> dist.(v) then ok := false;
        let expected = ref (-1) in
        if v <> root && dist.(v) < max_int then
          for l = nl - 1 downto 0 do
            if weights.(l) >= 0 && dst l = v && dist.(src l) < max_int
               && dist.(src l) + weights.(l) = dist.(v)
            then expected := l
          done;
        let got =
          match Spf_tree.parent_link tree nv with
          | None -> -1
          | Some l -> Link.id_to_int l.Link.id
        in
        if got <> !expected then ok := false
      done;
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
  let changes = Spf_repair.changes () in
  if w <> old then Spf_repair.add_change changes lid ~old_w:old ~new_w:w;
  Spf_repair.repair s g ~tree ~weights ~changes

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

(* A repair can write the tree without re-settling anything: taking
   down the only link into a node leaves it unreached, and [wrote_tree]
   must say so, or a forwarding column kept beside the tree would still
   route over the dead link. *)
let test_incremental_disconnect_writes () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let g = Builder.build b in
  let a = node g "A" and bn = node g "B" in
  let ab = Option.get (Graph.find_link g ~src:a ~dst:bn) in
  let costs = Array.make (Graph.link_count g) 10 in
  let weights, tree = view g costs a in
  let k = Link.id_to_int ab.Link.id in
  let changes = Spf_repair.changes () in
  Spf_repair.add_change changes ab.Link.id ~old_w:weights.(k) ~new_w:(-1);
  weights.(k) <- -1;
  let s = Spf_repair.scratch () in
  let resettled = Spf_repair.repair s g ~tree ~weights ~changes in
  Alcotest.(check int) "nothing re-settled" 0 resettled;
  Alcotest.(check bool) "tree written" true (Spf_repair.wrote_tree s);
  Alcotest.(check bool) "B unreached" false (Spf_tree.reached tree bn)

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
   from-scratch Dijkstra afterwards.  One change set is refilled for
   every receipt, as the DES refills its own.  The DES refreshes a
   node's forwarding column only when [wrote_tree] says the repair
   wrote the tree, so whenever it says not, the tree must still equal a
   from-scratch copy taken before the receipt; and a repair with no
   changes must write nothing. *)
let prop_shared_scratch_matches_full =
  let s = Spf_repair.scratch () in
  let changes = Spf_repair.changes () in
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
        let before =
          Array.init (Graph.node_count g) (fun r ->
              fresh g costs (Node.of_int r))
        in
        List.iter (fun (lid, c) -> costs.(Link.id_to_int lid) <- c) update;
        Array.iteri
          (fun r (weights, tree) ->
            Spf_repair.clear_changes changes;
            List.iter
              (fun (lid, _) ->
                let k = Link.id_to_int lid in
                let old = weights.(k) in
                let w =
                  Dijkstra.link_weight
                    ~cost:(fun l -> costs.(Link.id_to_int l))
                    lid
                in
                weights.(k) <- w;
                if w <> old then
                  Spf_repair.add_change changes lid ~old_w:old ~new_w:w)
              update;
            ignore (Spf_repair.repair s g ~tree ~weights ~changes);
            if (not (Spf_repair.wrote_tree s))
               && not (Spf_tree.equal tree before.(r))
            then ok := false;
            Spf_repair.clear_changes changes;
            ignore (Spf_repair.repair s g ~tree ~weights ~changes);
            if Spf_repair.wrote_tree s then ok := false;
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
    [ ( "int_heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "clear" `Quick test_heap_clear ]
        @ qsuite [ prop_heap_matches_sorted_model ] );
      ( "dijkstra",
        [ Alcotest.test_case "direct wins" `Quick test_dijkstra_direct_wins;
          Alcotest.test_case "reroutes" `Quick
            test_dijkstra_reroutes_around_expensive_link;
          Alcotest.test_case "deterministic ties" `Quick
            test_dijkstra_ties_deterministic;
          Alcotest.test_case "enabled" `Quick test_dijkstra_enabled;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "bad cost" `Quick test_dijkstra_rejects_bad_cost ]
        @ qsuite
            [ prop_dijkstra_optimality;
              prop_dijkstra_agrees_with_bellman_ford;
              prop_shortest_paths_hereditary;
              prop_dijkstra_matches_selection_loop ] );
      ( "spf_tree",
        [ Alcotest.test_case "paths and next hop" `Quick
            test_tree_paths_and_next_hop ] );
      ( "incremental",
        [ Alcotest.test_case "ignores irrelevant" `Quick
            test_incremental_ignores_irrelevant_increase;
          Alcotest.test_case "tracks change" `Quick test_incremental_tracks_change;
          Alcotest.test_case "skip rate (§2.2)" `Quick test_incremental_skip_rate;
          Alcotest.test_case "disconnect writes the tree" `Quick
            test_incremental_disconnect_writes ]
        @ qsuite [ prop_incremental_matches_full ] );
      ("repair_scratch", qsuite [ prop_shared_scratch_matches_full ]);
      ( "routing_table",
        [ Alcotest.test_case "traces" `Quick test_routing_table_traces ]
        @ qsuite [ prop_consistent_tables_are_loop_free ] ) ]
