(* Unit and property tests for the routing_topology library. *)

open Routing_topology
module Rng = Routing_stats.Rng

(* --- Node / Line_type / Link basics --- *)

let test_node_basics () =
  let n = Node.of_int 3 in
  Alcotest.(check int) "roundtrip" 3 (Node.to_int n);
  Alcotest.(check bool) "equal" true (Node.equal n (Node.of_int 3));
  Alcotest.check_raises "negative" (Invalid_argument "Node.of_int: negative id")
    (fun () -> ignore (Node.of_int (-1)))

let test_line_type_catalogue () =
  Alcotest.(check int) "eight line types" 8 (List.length Line_type.all);
  List.iteri
    (fun i lt ->
      Alcotest.(check int) "index roundtrip" i (Line_type.index lt);
      Alcotest.(check bool) "of_index" true
        (Line_type.equal lt (Line_type.of_index i));
      Alcotest.(check bool) "of_name" true
        (match Line_type.of_name (Line_type.name lt) with
        | Some lt' -> Line_type.equal lt lt'
        | None -> false))
    Line_type.all

let test_line_type_properties () =
  Alcotest.(check (float 0.)) "56T bandwidth" 56_000.
    (Line_type.bandwidth_bps Line_type.T56);
  Alcotest.(check bool) "satellite flag" true (Line_type.is_satellite Line_type.S56);
  Alcotest.(check bool) "terrestrial flag" false
    (Line_type.is_satellite Line_type.T448);
  Alcotest.(check int) "dual trunk" 2 (Line_type.trunk_count Line_type.T112);
  Alcotest.(check bool) "satellite propagation" true
    (Line_type.default_propagation_s Line_type.S9_6
    > Line_type.default_propagation_s Line_type.T9_6)

let small_graph () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "B" "C" in
  let _ = Builder.trunk b Line_type.T9_6 "A" "C" in
  Builder.build b

let test_builder_basics () =
  let g = small_graph () in
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "simplex links" 6 (Graph.link_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check string) "node name" "A"
    (Graph.node_name g (Option.get (Graph.node_by_name g "A")))

let test_builder_dedups_nodes () =
  let b = Builder.create () in
  let n1 = Builder.add_node b "X" in
  let n2 = Builder.add_node b "X" in
  Alcotest.(check bool) "same id for same name" true (Node.equal n1 n2)

let test_builder_rejects_self_loop () =
  let b = Builder.create () in
  Alcotest.check_raises "self loop" (Invalid_argument "Builder.trunk: self-loop")
    (fun () -> ignore (Builder.trunk b Line_type.T56 "A" "A"))

let test_graph_reverse_pairing () =
  let g = small_graph () in
  Graph.iter_links g (fun l ->
      let r = Graph.reverse g l in
      Alcotest.(check bool) "reverse endpoints" true
        (Node.equal r.Link.src l.Link.dst && Node.equal r.Link.dst l.Link.src);
      Alcotest.(check bool) "reverse of reverse" true
        (Link.id_equal (Graph.reverse g r).Link.id l.Link.id);
      Alcotest.(check bool) "same line type" true
        (Line_type.equal r.Link.line_type l.Link.line_type));
  (* Two parallel trunks whose links all point at the first pair's
     reverses: endpoints agree, but the links do not pair up, so the
     flooding count (one reverse per arrival link) would not hold. *)
  let link id src dst reverse =
    { Link.id = Link.id_of_int id;
      src = Node.of_int src;
      dst = Node.of_int dst;
      line_type = Line_type.T56;
      propagation_s = 0.;
      reverse = Link.id_of_int reverse }
  in
  Alcotest.check_raises "reverse pointers must pair up"
    (Invalid_argument "Graph.make: reverse pointers must pair links up")
    (fun () ->
      ignore
        (Graph.make ~names:[| "A"; "B" |]
           ~links:
             [| link 0 0 1 2; link 1 0 1 2; link 2 1 0 0; link 3 1 0 0 |]))

let test_graph_adjacency () =
  let g = small_graph () in
  let a = Option.get (Graph.node_by_name g "A") in
  Alcotest.(check int) "degree of A" 2 (Graph.degree g a);
  let b = Option.get (Graph.node_by_name g "B") in
  (match Graph.find_link g ~src:a ~dst:b with
  | Some l ->
    Alcotest.(check bool) "find_link endpoints" true
      (Node.equal l.Link.src a && Node.equal l.Link.dst b)
  | None -> Alcotest.fail "A-B link missing");
  Alcotest.(check bool) "no direct link to self" true
    (Graph.find_link g ~src:a ~dst:a = None)

let test_graph_disconnected_detected () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "C" "D" in
  Alcotest.(check bool) "disconnected" false (Graph.is_connected (Builder.build b))

let test_link_transmission () =
  let g = small_graph () in
  let l = Graph.link g (Link.id_of_int 0) in
  Alcotest.(check (float 1e-9)) "600 bits on 56k" (600. /. 56_000.)
    (Link.transmission_s l ~bits:600.)

(* --- Generators --- *)

let test_two_region () =
  let g, (a, b) = Generators.two_region () in
  Alcotest.(check int) "16 nodes" 16 (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  let la = Graph.link g a and lb = Graph.link g b in
  Alcotest.(check string) "bridge A from L0" "L0" (Graph.node_name g la.Link.src);
  Alcotest.(check string) "bridge B from L1" "L1" (Graph.node_name g lb.Link.src);
  (* Removing both bridges must disconnect the regions: every L->R path
     crosses one of them. *)
  let bridgeless = ref 0 in
  Graph.iter_links g (fun l ->
      let sn = Graph.node_name g l.Link.src and dn = Graph.node_name g l.Link.dst in
      if sn.[0] <> dn.[0] then incr bridgeless);
  Alcotest.(check int) "exactly two inter-region trunks (4 simplex)" 4 !bridgeless

let test_ring () =
  let g = Generators.ring 5 in
  Alcotest.(check int) "nodes" 5 (Graph.node_count g);
  Alcotest.(check int) "links" 10 (Graph.link_count g);
  Graph.iter_nodes g (fun n -> Alcotest.(check int) "degree 2" 2 (Graph.degree g n))

let test_line_and_mesh () =
  let g = Generators.line 4 in
  Alcotest.(check int) "line links" 6 (Graph.link_count g);
  let m = Generators.full_mesh 4 in
  Alcotest.(check int) "mesh links" 12 (Graph.link_count m)

let prop_ring_chord_connected =
  QCheck2.Test.make ~name:"ring_chord always connected" ~count:50
    QCheck2.Gen.(triple (int_range 0 1000) (int_range 3 40) (int_range 0 30))
    (fun (seed, nodes, chords) ->
      let g = Generators.ring_chord (Rng.create seed) ~nodes ~chords in
      Graph.is_connected g && Graph.node_count g = nodes)

let prop_random_geometric_connected =
  QCheck2.Test.make ~name:"random_geometric always connected" ~count:30
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 2 40))
    (fun (seed, nodes) ->
      let g = Generators.random_geometric (Rng.create seed) ~nodes ~radius:0.25 in
      Graph.is_connected g)

let link_pairs g =
  let acc = ref [] in
  Graph.iter_links g (fun l ->
      acc := (Node.to_int l.Link.src, Node.to_int l.Link.dst) :: !acc);
  List.rev !acc

let prop_waxman_connected_and_deterministic =
  QCheck2.Test.make ~name:"waxman connected and seed-deterministic" ~count:25
    QCheck2.Gen.(triple (int_range 0 1000) (int_range 2 120) (int_range 1 10))
    (fun (seed, nodes, b10) ->
      let beta = float_of_int b10 /. 10. in
      let gen () =
        Generators.waxman (Rng.create seed) ~nodes ~alpha:0.9 ~beta
      in
      let g = gen () in
      Graph.node_count g = nodes
      && Graph.is_connected g
      && link_pairs g = link_pairs (gen ()))

let test_waxman_rejects_bad_parameters () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  let w ?(nodes = 10) ?(alpha = 0.5) ?(beta = 0.5) () =
    Generators.waxman (Rng.create 1) ~nodes ~alpha ~beta
  in
  Alcotest.(check bool) "nodes < 2" true (bad (w ~nodes:1));
  Alcotest.(check bool) "alpha = 0" true (bad (w ~alpha:0.));
  Alcotest.(check bool) "alpha > 1" true (bad (w ~alpha:1.5));
  Alcotest.(check bool) "beta = 0" true (bad (w ~beta:0.));
  Alcotest.(check bool) "beta > 1" true (bad (w ~beta:1.01));
  Alcotest.(check bool) "valid corner accepted" false
    (bad (w ~alpha:1.0 ~beta:1.0))

let test_hierarchical_shape () =
  let g =
    Generators.hierarchical ~cores:4 ~pops_per_core:5 ~access_per_pop:8 ()
  in
  Alcotest.(check int) "node count = cores*(1+pops*(1+access))" 184
    (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Purely structural, so two builds are identical. *)
  let g' =
    Generators.hierarchical ~cores:4 ~pops_per_core:5 ~access_per_pop:8 ()
  in
  Alcotest.(check bool) "deterministic" true (link_pairs g = link_pairs g');
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "cores < 3 rejected" true
    (bad (fun () ->
         Generators.hierarchical ~cores:2 ~pops_per_core:1 ~access_per_pop:0
           ()))

let test_generator_spec () =
  let h =
    Generators.Hierarchical
      { cores = 3; pops_per_core = 2; access_per_pop = 1 }
  in
  Alcotest.(check int) "hierarchical spec size" 15 (Generators.spec_nodes h);
  let w = Generators.Waxman { nodes = 40; alpha = 0.9; beta = 0.4 } in
  Alcotest.(check int) "waxman spec size" 40 (Generators.spec_nodes w);
  List.iter
    (fun spec ->
      let g = Generators.of_spec (Rng.create 5) spec in
      Alcotest.(check int)
        "of_spec honors spec_nodes" (Generators.spec_nodes spec)
        (Graph.node_count g);
      Alcotest.(check bool) "of_spec connected" true (Graph.is_connected g))
    [ h; w ]

(* --- ARPANET / MILNET topologies --- *)

let test_arpanet_shape () =
  let g = Arpanet.topology () in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check int) "node count" 57 (Graph.node_count g);
  Alcotest.(check bool) "size ~72 trunks" true (Graph.link_count g / 2 = 72);
  let avg = Graph.average_degree g in
  Alcotest.(check bool) "mesh density like 1987 ARPANET" true
    (avg > 2.2 && avg < 3.2);
  (* Satellite links present: Hawaii, Norway, domestic. *)
  let sats = ref 0 in
  Graph.iter_links g (fun l -> if Line_type.is_satellite l.Link.line_type then incr sats);
  Alcotest.(check int) "three satellite trunks" 6 !sats

let test_arpanet_bridges () =
  let g = Arpanet.topology () in
  let bridges = Arpanet.bridge_links g in
  Alcotest.(check int) "five cross-country trunks, both directions" 10
    (List.length bridges);
  let l = Arpanet.representative_link g in
  Alcotest.(check bool) "representative is 56T" true
    (Line_type.equal l.Link.line_type Line_type.T56)

let test_arpanet_traffic () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let total = Traffic_matrix.total_bps tm in
  Alcotest.(check bool) "total near 366 kb/s" true
    (total > 300_000. && total < 450_000.);
  (* No node may offer more traffic than its access lines can carry. *)
  Graph.iter_nodes g (fun node ->
      let cap =
        List.fold_left (fun acc l -> acc +. Link.capacity_bps l) 0.
          (Graph.out_links g node)
      in
      Alcotest.(check bool)
        (Printf.sprintf "access-feasible at %s" (Graph.node_name g node))
        true
        (Traffic_matrix.offered_from tm node <= cap));
  (* Nor sink more than its inbound trunks can deliver: the fit scales
     columns as well as rows. *)
  Graph.iter_nodes g (fun node ->
      let cap =
        List.fold_left (fun acc l -> acc +. Link.capacity_bps l) 0.
          (Graph.in_links g node)
      in
      Alcotest.(check bool)
        (Printf.sprintf "sink-feasible at %s" (Graph.node_name g node))
        true
        (Traffic_matrix.offered_to tm node <= cap))

(* Reference fit: each node's inbound demand is accumulated by a fold
   over the whole matrix (O(passes * N^3), one boxed float per entry).
   [Arpanet.peak_traffic] must reproduce it bit for bit. *)
let reference_fold tm ~init ~f =
  let acc = ref init in
  Traffic_matrix.iter tm (fun ~src ~dst v -> acc := f !acc ~src ~dst v);
  !acc

let reference_fit g tm ~frac =
  let cap_out = Array.make (Graph.node_count g) 0. in
  let cap_in = Array.make (Graph.node_count g) 0. in
  Graph.iter_links g (fun (l : Link.t) ->
      let c = Link.capacity_bps l in
      cap_out.(Node.to_int l.Link.src) <- cap_out.(Node.to_int l.Link.src) +. c;
      cap_in.(Node.to_int l.Link.dst) <- cap_in.(Node.to_int l.Link.dst) +. c);
  for _pass = 1 to 8 do
    Graph.iter_nodes g (fun node ->
        let offered = Traffic_matrix.offered_from tm node in
        let limit = frac *. cap_out.(Node.to_int node) in
        if offered > limit then begin
          let k = limit /. offered in
          Graph.iter_nodes g (fun dst ->
              Traffic_matrix.set tm ~src:node ~dst
                (k *. Traffic_matrix.get tm ~src:node ~dst))
        end);
    Graph.iter_nodes g (fun node ->
        let sunk =
          reference_fold tm ~init:0. ~f:(fun acc ~src:_ ~dst v ->
              if Node.equal dst node then acc +. v else acc)
        in
        let limit = frac *. cap_in.(Node.to_int node) in
        if sunk > limit then begin
          let k = limit /. sunk in
          Graph.iter_nodes g (fun src ->
              Traffic_matrix.set tm ~src ~dst:node
                (k *. Traffic_matrix.get tm ~src ~dst:node))
        end)
  done

let reference_peak rng g =
  let base =
    Traffic_matrix.gravity rng ~nodes:(Graph.node_count g) ~total_bps:400_000.
  in
  reference_fit g base ~frac:0.30;
  List.iter
    (fun (a, z, bps) ->
      match (Graph.node_by_name g a, Graph.node_by_name g z) with
      | Some src, Some dst ->
        Traffic_matrix.add base ~src ~dst bps;
        Traffic_matrix.add base ~src:dst ~dst:src bps
      | _ -> Alcotest.failf "no node %s or %s" a z)
    [ ("MIT", "ISI", 6_000.);
      ("BBN", "SRI", 5_000.);
      ("ARPA", "ISI", 5_000.);
      ("CMU", "STANFORD", 4_000.);
      ("UTAH", "MIT", 3_000.) ];
  base

let test_peak_traffic_matches_reference () =
  let g = Arpanet.topology () in
  let n = Graph.node_count g in
  List.iter
    (fun seed ->
      let tm = Arpanet.peak_traffic (Rng.create seed) g in
      let expected = reference_peak (Rng.create seed) g in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          let src = Node.of_int s and dst = Node.of_int d in
          let got = Traffic_matrix.get tm ~src ~dst
          and want = Traffic_matrix.get expected ~src ~dst in
          let bits = Int64.bits_of_float in
          if not (Int64.equal (bits got) (bits want)) then
            Alcotest.failf "seed %d, %d->%d: %h, reference %h" seed s d got want
        done
      done)
    (7 :: 11 :: List.init 200 (fun i -> (i * 1000) + 1))

(* Set-up allocation: the fit reads row and column sums in place, so a
   whole peak matrix costs well under ten minor words per entry, and
   summing a matrix allocates nothing per entry: at most the two-word
   box that any out-of-line call returning a float allocates. *)
let test_peak_traffic_allocation () =
  let g = Arpanet.topology () in
  let n = Graph.node_count g in
  let rng = Rng.create 7 in
  let before = Gc.minor_words () in
  let tm = Arpanet.peak_traffic rng g in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "peak_traffic: %.0f minor words < 10 N^2 = %d" words
       (10 * n * n))
    true
    (words < float_of_int (10 * n * n));
  let before = Gc.minor_words () in
  let total = Traffic_matrix.total_bps tm in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "total_bps: %.0f minor words, at most its boxed result"
       words)
    true (words <= 2.);
  Alcotest.(check bool) "total read" true (total > 0.)

let test_milnet_shape () =
  let g = Milnet.topology () in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Heterogeneous trunking: all bandwidth classes appear. *)
  let seen = Hashtbl.create 8 in
  Graph.iter_links g (fun l -> Hashtbl.replace seen l.Link.line_type ());
  Alcotest.(check bool) "uses multi-trunk bundles" true
    (Hashtbl.mem seen Line_type.T448 && Hashtbl.mem seen Line_type.T112);
  Alcotest.(check bool) "uses satellite" true
    (Hashtbl.mem seen Line_type.S56 && Hashtbl.mem seen Line_type.S112);
  Alcotest.(check bool) "uses 9.6 tails" true (Hashtbl.mem seen Line_type.T9_6)

(* --- Traffic matrix --- *)

let test_tm_set_get () =
  let tm = Traffic_matrix.create ~nodes:4 in
  let n = Node.of_int in
  Traffic_matrix.set tm ~src:(n 0) ~dst:(n 1) 100.;
  Alcotest.(check (float 0.)) "get" 100. (Traffic_matrix.get tm ~src:(n 0) ~dst:(n 1));
  Traffic_matrix.set tm ~src:(n 2) ~dst:(n 2) 50.;
  Alcotest.(check (float 0.)) "diagonal forced zero" 0.
    (Traffic_matrix.get tm ~src:(n 2) ~dst:(n 2));
  Traffic_matrix.add tm ~src:(n 0) ~dst:(n 1) 20.;
  Alcotest.(check (float 0.)) "add accumulates" 120.
    (Traffic_matrix.get tm ~src:(n 0) ~dst:(n 1));
  Traffic_matrix.set tm ~src:(n 0) ~dst:(n 3) (-5.);
  Alcotest.(check (float 0.)) "negative clamped" 0.
    (Traffic_matrix.get tm ~src:(n 0) ~dst:(n 3))

let test_tm_scale_copy () =
  let tm = Traffic_matrix.uniform ~nodes:3 ~pair_bps:10. in
  Alcotest.(check (float 1e-9)) "uniform total" 60. (Traffic_matrix.total_bps tm);
  let double = Traffic_matrix.scale tm 2. in
  Alcotest.(check (float 1e-9)) "scaled" 120. (Traffic_matrix.total_bps double);
  Alcotest.(check (float 1e-9)) "original untouched" 60.
    (Traffic_matrix.total_bps tm);
  let c = Traffic_matrix.copy tm in
  Traffic_matrix.set c ~src:(Node.of_int 0) ~dst:(Node.of_int 1) 0.;
  Alcotest.(check (float 1e-9)) "copy is independent" 60.
    (Traffic_matrix.total_bps tm)

(* [scale] must compute exactly [Array.map (fun v -> v *. factor)]'s
   products, entry for entry and bit for bit, without boxing a float per
   entry: on the 57-node peak matrix the fresh demand array goes straight
   to the major heap, so the call's minor words are its record alone,
   where a closure per entry allocated about four words each. *)
let test_tm_scale_exact_and_unboxed () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let n = Traffic_matrix.nodes tm in
  List.iter
    (fun factor ->
      let scaled = Traffic_matrix.scale tm factor in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          let src = Node.of_int s and dst = Node.of_int d in
          let want = Traffic_matrix.get tm ~src ~dst *. factor in
          let got = Traffic_matrix.get scaled ~src ~dst in
          if Int64.bits_of_float got <> Int64.bits_of_float want then
            Alcotest.failf "x%h: entry (%d, %d) is %h, want %h" factor s d
              got want
        done
      done)
    [ 1.; 1.13; 0.5; 2.5; 0.; -1.; Float.nan; Float.infinity ];
  let factor = 1.13 in
  let before = Gc.minor_words () in
  let scaled = Traffic_matrix.scale tm factor in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "scale: %.0f minor words for %d entries, at most 16" words
       (n * n))
    true
    (Traffic_matrix.nodes scaled = n && words <= 16.)

let test_tm_gravity_total () =
  let tm = Traffic_matrix.gravity (Rng.create 3) ~nodes:10 ~total_bps:1000. in
  Alcotest.(check (float 1e-6)) "gravity hits requested total" 1000.
    (Traffic_matrix.total_bps tm);
  Alcotest.(check int) "all pairs flow" 90 (Traffic_matrix.flow_count tm)

let test_tm_hotspot () =
  let n = Node.of_int in
  let tm =
    Traffic_matrix.hotspot (Rng.create 5) ~nodes:4 ~background_bps:10.
      ~hotspots:[ (n 0, n 3, 500.) ]
  in
  Alcotest.(check bool) "hotspot dominates" true
    (Traffic_matrix.get tm ~src:(n 0) ~dst:(n 3) > 400.);
  Alcotest.(check bool) "background jittered around 10" true
    (let v = Traffic_matrix.get tm ~src:(n 1) ~dst:(n 2) in
     v > 7.9 && v < 12.1)

(* --- Graph analysis --- *)

(* Brute force ground truths. *)
let connected_without g ~dead_links ~dead_node =
  let n = Graph.node_count g in
  let alive i = Some i <> dead_node in
  let start =
    let rec find i = if alive i then i else find (i + 1) in
    find 0
  in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(start) <- true;
  Queue.add (Node.of_int start) queue;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    List.iter
      (fun (l : Link.t) ->
        let j = Node.to_int l.Link.dst in
        if
          alive j
          && (not (List.mem (Link.id_to_int l.Link.id) dead_links))
          && not seen.(j)
        then begin
          seen.(j) <- true;
          incr count;
          Queue.add l.Link.dst queue
        end)
      (Graph.out_links g node)
  done;
  let alive_total = if dead_node = None then n else n - 1 in
  !count = alive_total

let prop_bridges_match_brute_force =
  QCheck2.Test.make ~name:"bridges = brute force" ~count:30
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 12 in
      let g = Generators.ring_chord rng ~nodes ~chords:(Rng.int rng 4) in
      let declared =
        Graph_analysis.bridges g
        |> List.map (fun (l : Link.t) -> Link.id_to_int l.Link.id)
      in
      let ok = ref true in
      Graph.iter_links g (fun (l : Link.t) ->
          if Link.id_compare l.Link.id l.Link.reverse < 0 then begin
            let cut =
              not
                (connected_without g
                   ~dead_links:
                     [ Link.id_to_int l.Link.id;
                       Link.id_to_int l.Link.reverse ]
                   ~dead_node:None)
            in
            if cut <> List.mem (Link.id_to_int l.Link.id) declared then
              ok := false
          end);
      !ok)

let prop_articulation_match_brute_force =
  QCheck2.Test.make ~name:"articulation points = brute force" ~count:30
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 12 in
      let g = Generators.ring_chord rng ~nodes ~chords:(Rng.int rng 4) in
      let declared =
        Graph_analysis.articulation_points g |> List.map Node.to_int
      in
      let ok = ref true in
      Graph.iter_nodes g (fun node ->
          let i = Node.to_int node in
          let cut =
            not (connected_without g ~dead_links:[] ~dead_node:(Some i))
          in
          if cut <> List.mem i declared then ok := false);
      !ok)

let test_analysis_ring_has_no_bridges () =
  let g = Generators.ring 6 in
  Alcotest.(check int) "ring: no bridges" 0
    (List.length (Graph_analysis.bridges g));
  Alcotest.(check int) "ring: no articulation" 0
    (List.length (Graph_analysis.articulation_points g));
  Alcotest.(check int) "ring diameter" 3 (Graph_analysis.diameter_hops g)

let test_analysis_line_all_bridges () =
  let g = Generators.line 4 in
  Alcotest.(check int) "every trunk a bridge" 3
    (List.length (Graph_analysis.bridges g));
  Alcotest.(check int) "inner nodes articulate" 2
    (List.length (Graph_analysis.articulation_points g))

let test_analysis_parallel_trunk_not_bridge () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "B" "C" in
  let g = Builder.build b in
  let bridge_names =
    Graph_analysis.bridges g
    |> List.map (fun (l : Link.t) ->
           Graph.node_name g l.Link.src ^ Graph.node_name g l.Link.dst)
  in
  Alcotest.(check (list string)) "only the single B-C trunk" [ "BC" ]
    bridge_names

(* The BFS hop table against min-hop SPF trees on random topologies with
   random simplex links down: every pair's entry is the tree's hop count,
   and -1 exactly where the tree does not reach. *)
let prop_hop_counts_match_min_hop_spf =
  QCheck2.Test.make ~name:"hop counts = min-hop SPF" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let module Dijkstra = Routing_spf.Dijkstra in
      let module Spf_tree = Routing_spf.Spf_tree in
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 24 in
      let g =
        if Rng.bool rng then
          Generators.ring_chord rng ~nodes ~chords:(Rng.int rng 6)
        else Generators.waxman rng ~nodes ~alpha:0.6 ~beta:0.4
      in
      let down_share = Rng.uniform rng ~lo:0. ~hi:0.5 in
      let up =
        Array.init (Graph.link_count g) (fun _ ->
            Rng.uniform rng ~lo:0. ~hi:1. >= down_share)
      in
      let table = Array.make (nodes * nodes) 7 in
      Graph_analysis.hop_counts_into ~up g table;
      let enabled lid = up.(Link.id_to_int lid) in
      let ok = ref true in
      for s = 0 to nodes - 1 do
        let tree = Dijkstra.min_hop_tree ~enabled g (Node.of_int s) in
        for d = 0 to nodes - 1 do
          let dst = Node.of_int d in
          let want =
            if Spf_tree.reached tree dst then Spf_tree.hops tree dst else -1
          in
          if table.((s * nodes) + d) <> want then ok := false
        done
      done;
      !ok)

(* [diameter_hops] now reads the hop table; the shipped topologies keep
   the diameters the per-source queue walk found. *)
let test_analysis_diameters () =
  let two_region, _ = Generators.two_region () in
  List.iter
    (fun (name, g, want) ->
      Alcotest.(check int) name want (Graph_analysis.diameter_hops g))
    [ ("arpanet", Arpanet.topology (), 13);
      ("milnet", Milnet.topology (), 10);
      ("two_region", two_region, 5) ];
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "C" "D" in
  Alcotest.(check int) "disconnected" max_int
    (Graph_analysis.diameter_hops (Builder.build b))

let test_analysis_arpanet () =
  let g = Arpanet.topology () in
  let cut_trunks = Graph_analysis.bridges g in
  (* The tails: LINC's pair is a cycle... count what brute force counts. *)
  Alcotest.(check bool) "a handful of tail bridges" true
    (List.length cut_trunks >= 4 && List.length cut_trunks <= 12);
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let captive = Graph_analysis.captive_traffic_fraction g tm in
  (* Fig 8's floor: the response map levels off near 0.13 because that is
     (roughly) the captive share of traffic. *)
  Alcotest.(check bool)
    (Printf.sprintf "captive fraction plausible (%.3f)" captive)
    true
    (captive > 0.03 && captive < 0.25);
  Alcotest.(check bool) "diameter like the 1987 net" true
    (Graph_analysis.diameter_hops g >= 8 && Graph_analysis.diameter_hops g <= 16)

(* --- DOT export --- *)

let test_dot_export () =
  let g = Arpanet.topology () in
  let dot =
    Dot.to_dot ~label:"arpanet"
      ~utilization:(fun (l : Link.t) ->
        if Link.id_to_int l.Link.id = 0 then Some 0.99 else Some 0.1)
      g
  in
  Alcotest.(check bool) "graph block" true
    (Astring.String.is_prefix ~affix:"graph network {" dot);
  Alcotest.(check bool) "one edge per trunk" true
    (let count = ref 0 in
     String.iteri (fun i c -> if c = '-' && i > 0 && dot.[i-1] = '-' then incr count) dot;
     !count = Graph.link_count g / 2);
  Alcotest.(check bool) "hot edge red" true
    (Astring.String.is_infix ~affix:"color=red" dot);
  Alcotest.(check bool) "cool edges green" true
    (Astring.String.is_infix ~affix:"color=forestgreen" dot);
  Alcotest.(check bool) "satellite dashed" true
    (Astring.String.is_infix ~affix:"style=dashed" dot);
  Alcotest.(check bool) "label present" true
    (Astring.String.is_infix ~affix:"label=\"arpanet\"" dot)

(* --- Serialization --- *)

let test_serial_roundtrip_arpanet () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let text = Serial.to_string g (Some tm) in
  match Serial.of_string text with
  | Error e -> Alcotest.fail e
  | Ok (g', tm') ->
    Alcotest.(check int) "nodes preserved" (Graph.node_count g)
      (Graph.node_count g');
    Alcotest.(check int) "links preserved" (Graph.link_count g)
      (Graph.link_count g');
    Graph.iter_nodes g (fun n ->
        let name = Graph.node_name g n in
        Alcotest.(check bool) "node names preserved" true
          (Graph.node_by_name g' name <> None));
    Alcotest.(check bool) "traffic total preserved" true
      (Float.abs (Traffic_matrix.total_bps tm -. Traffic_matrix.total_bps tm')
      < 1e-2 *. Traffic_matrix.total_bps tm);
    (* Link structure: same line-type multiset per node pair. *)
    Graph.iter_links g (fun l ->
        let a = Graph.node_name g l.Link.src and b = Graph.node_name g l.Link.dst in
        match
          ( Graph.node_by_name g' a,
            Graph.node_by_name g' b )
        with
        | Some a', Some b' ->
          (match Graph.find_link g' ~src:a' ~dst:b' with
          | Some l' ->
            Alcotest.(check bool) "line type preserved" true
              (Line_type.equal l.Link.line_type l'.Link.line_type)
          | None -> Alcotest.fail "missing link after roundtrip")
        | _ -> Alcotest.fail "missing node after roundtrip")

let test_serial_parse_errors () =
  let check_error text expected_fragment =
    match Serial.of_string text with
    | Ok _ -> Alcotest.fail ("expected parse error for: " ^ text)
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e expected_fragment)
        true
        (Astring.String.is_infix ~affix:expected_fragment e)
  in
  check_error "trunk A B 77T" "unknown line type";
  check_error "trunk A A 56T" "self-loop";
  check_error "frobnicate X" "unrecognized";
  check_error "demand A B 100" "unknown node";
  check_error "trunk A B 56T -0.5" "bad propagation";
  check_error "trunk A B 56T\ndemand A B x" "bad demand";
  (* Non-finite numbers parse as floats but are no demand or delay. *)
  check_error "trunk A C 56T\ndemand A C 1e400" "line 2: bad demand";
  check_error "trunk A C 56T\ndemand C A inf" "line 2: bad demand";
  check_error "trunk C A 56T infinity" "line 1: bad propagation"

let test_serial_comments_and_blanks () =
  let text =
    "# a scenario\n\n  trunk A B 56T 0.001  # inline comment\ndemand A B 5000\n"
  in
  match Serial.of_string text with
  | Error e -> Alcotest.fail e
  | Ok (g, tm) ->
    Alcotest.(check int) "two nodes" 2 (Graph.node_count g);
    Alcotest.(check (float 1e-9)) "demand read" 5000. (Traffic_matrix.total_bps tm)

let prop_serial_roundtrip_random =
  QCheck2.Test.make ~name:"serial roundtrip on random scenarios" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 15 in
      (* Random line types per chord require a custom build. *)
      let b = Builder.create () in
      for i = 0 to nodes - 1 do
        let lt = Line_type.of_index (Rng.int rng 8) in
        ignore
          (Builder.trunk b lt
             (Printf.sprintf "N%d" i)
             (Printf.sprintf "N%d" ((i + 1) mod nodes)))
      done;
      let g = Builder.build b in
      let tm = Traffic_matrix.gravity rng ~nodes ~total_bps:5000. in
      match Serial.of_string (Serial.to_string g (Some tm)) with
      | Error _ -> false
      | Ok (g', tm') ->
        Graph.node_count g' = Graph.node_count g
        && Graph.link_count g' = Graph.link_count g
        && Float.abs (Traffic_matrix.total_bps tm' -. Traffic_matrix.total_bps tm)
           (* demands print at 3 decimals: up to 0.0005 bps error each *)
           < 0.001 *. float_of_int (Traffic_matrix.flow_count tm))

(* Fuzz: the parser returns Result on arbitrary junk, never raises. *)
let prop_serial_parser_total =
  QCheck2.Test.make ~name:"serial parser never raises" ~count:300
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 200))
    (fun text ->
      match Serial.of_string text with Ok _ | Error _ -> true)

let prop_tm_offered_from_consistent =
  QCheck2.Test.make ~name:"offered_from equals row sum" ~count:50
    QCheck2.Gen.(pair (int_range 0 500) (int_range 2 12))
    (fun (seed, nodes) ->
      let tm = Traffic_matrix.gravity (Rng.create seed) ~nodes ~total_bps:1e4 in
      let ok = ref true in
      for s = 0 to nodes - 1 do
        let row = ref 0. in
        Traffic_matrix.iter tm (fun ~src ~dst:_ v ->
            if Node.to_int src = s then row := !row +. v);
        if Float.abs (!row -. Traffic_matrix.offered_from tm (Node.of_int s)) > 1e-6
        then ok := false
      done;
      !ok)

(* [offered_to] is the column sum of [iter]'s entries in [iter]'s order,
   and [flows] lists exactly those entries, on gravity matrices with
   some rows and columns zeroed (so sources and sinks go missing) and a
   few NaN entries, which [iter] skips. *)
let prop_tm_columns_and_flows_follow_iter =
  QCheck2.Test.make ~name:"offered_to and flows follow iter" ~count:100
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 14))
    (fun (seed, nodes) ->
      let rng = Rng.create seed in
      let tm = Traffic_matrix.gravity rng ~nodes ~total_bps:1e5 in
      for k = 0 to nodes - 1 do
        let zero_row = Rng.int rng 4 = 0 and zero_col = Rng.int rng 4 = 0 in
        for j = 0 to nodes - 1 do
          if zero_row then
            Traffic_matrix.set tm ~src:(Node.of_int k) ~dst:(Node.of_int j) 0.;
          if zero_col then
            Traffic_matrix.set tm ~src:(Node.of_int j) ~dst:(Node.of_int k) 0.
        done;
        if Rng.int rng 4 = 0 then
          Traffic_matrix.set tm ~src:(Node.of_int k)
            ~dst:(Node.of_int (Rng.int rng nodes))
            nan
      done;
      let bits = Int64.bits_of_float in
      let column = Array.make nodes 0. in
      let visited = ref [] in
      Traffic_matrix.iter tm (fun ~src ~dst v ->
          let d = Node.to_int dst in
          column.(d) <- column.(d) +. v;
          visited := (Node.to_int src, d, bits v) :: !visited);
      let srcs, dsts, demands = Traffic_matrix.flows tm in
      let listed =
        List.init (Array.length srcs) (fun i ->
            (srcs.(i), dsts.(i), bits demands.(i)))
      in
      Array.length dsts = Array.length srcs
      && Array.length demands = Array.length srcs
      && listed = List.rev !visited
      && Array.length srcs = Traffic_matrix.flow_count tm
      && List.for_all
           (fun d ->
             Int64.equal (bits column.(d))
               (bits (Traffic_matrix.offered_to tm (Node.of_int d))))
           (List.init nodes Fun.id))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_topology"
    [ ( "basics",
        [ Alcotest.test_case "node" `Quick test_node_basics;
          Alcotest.test_case "line type catalogue" `Quick test_line_type_catalogue;
          Alcotest.test_case "line type properties" `Quick test_line_type_properties;
          Alcotest.test_case "link transmission" `Quick test_link_transmission ] );
      ( "builder+graph",
        [ Alcotest.test_case "builder" `Quick test_builder_basics;
          Alcotest.test_case "dedup nodes" `Quick test_builder_dedups_nodes;
          Alcotest.test_case "self loop" `Quick test_builder_rejects_self_loop;
          Alcotest.test_case "reverse pairing" `Quick test_graph_reverse_pairing;
          Alcotest.test_case "adjacency" `Quick test_graph_adjacency;
          Alcotest.test_case "disconnected" `Quick test_graph_disconnected_detected ]
      );
      ( "generators",
        [ Alcotest.test_case "two region" `Quick test_two_region;
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "line and mesh" `Quick test_line_and_mesh;
          Alcotest.test_case "waxman parameter guard" `Quick
            test_waxman_rejects_bad_parameters;
          Alcotest.test_case "hierarchical shape" `Quick
            test_hierarchical_shape;
          Alcotest.test_case "generator specs" `Quick test_generator_spec ]
        @ qsuite
            [ prop_ring_chord_connected;
              prop_random_geometric_connected;
              prop_waxman_connected_and_deterministic ] );
      ( "arpanet+milnet",
        [ Alcotest.test_case "arpanet shape" `Quick test_arpanet_shape;
          Alcotest.test_case "arpanet bridges" `Quick test_arpanet_bridges;
          Alcotest.test_case "arpanet traffic" `Quick test_arpanet_traffic;
          Alcotest.test_case "peak traffic = reference fit" `Quick
            test_peak_traffic_matches_reference;
          Alcotest.test_case "peak traffic allocation" `Quick
            test_peak_traffic_allocation;
          Alcotest.test_case "milnet shape" `Quick test_milnet_shape ] );
      ( "analysis",
        [ Alcotest.test_case "ring" `Quick test_analysis_ring_has_no_bridges;
          Alcotest.test_case "line" `Quick test_analysis_line_all_bridges;
          Alcotest.test_case "parallel trunk" `Quick
            test_analysis_parallel_trunk_not_bridge;
          Alcotest.test_case "arpanet" `Quick test_analysis_arpanet;
          Alcotest.test_case "diameters" `Quick test_analysis_diameters ]
        @ qsuite
            [ prop_hop_counts_match_min_hop_spf;
              prop_bridges_match_brute_force;
              prop_articulation_match_brute_force ] );
      ( "dot",
        [ Alcotest.test_case "export" `Quick test_dot_export ] );
      ( "serial",
        [ Alcotest.test_case "arpanet roundtrip" `Quick test_serial_roundtrip_arpanet;
          Alcotest.test_case "parse errors" `Quick test_serial_parse_errors;
          Alcotest.test_case "comments" `Quick test_serial_comments_and_blanks ]
        @ qsuite [ prop_serial_roundtrip_random; prop_serial_parser_total ] );
      ( "traffic_matrix",
        [ Alcotest.test_case "set/get" `Quick test_tm_set_get;
          Alcotest.test_case "scale/copy" `Quick test_tm_scale_copy;
          Alcotest.test_case "scale exact and unboxed" `Quick
            test_tm_scale_exact_and_unboxed;
          Alcotest.test_case "gravity" `Quick test_tm_gravity_total;
          Alcotest.test_case "hotspot" `Quick test_tm_hotspot ]
        @ qsuite
            [ prop_tm_offered_from_consistent;
              prop_tm_columns_and_flows_follow_iter ] ) ]
