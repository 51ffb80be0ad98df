(* Unit and property tests for the routing_flooding library. *)

open Routing_topology
module Sequence = Routing_flooding.Sequence
module Update = Routing_flooding.Update
module Flooder = Routing_flooding.Flooder
module Broadcast = Routing_flooding.Broadcast
module Rng = Routing_stats.Rng

(* --- Sequence numbers --- *)

let test_sequence_basics () =
  let s0 = Sequence.zero in
  let s1 = Sequence.next s0 in
  Alcotest.(check bool) "next is newer" true (Sequence.newer s1 s0);
  Alcotest.(check bool) "not older" false (Sequence.newer s0 s1);
  Alcotest.(check bool) "not newer than self" false (Sequence.newer s0 s0)

let test_sequence_wraps () =
  let last = Sequence.of_int (Sequence.space - 1) in
  let wrapped = Sequence.next last in
  Alcotest.(check int) "wraps to zero" 0 (Sequence.to_int wrapped);
  Alcotest.(check bool) "wrapped is newer than last" true
    (Sequence.newer wrapped last)

let test_sequence_half_space () =
  let a = Sequence.of_int 0 in
  let b = Sequence.of_int ((Sequence.space / 2) - 1) in
  Alcotest.(check bool) "just under half: newer" true (Sequence.newer b a);
  let c = Sequence.of_int (Sequence.space / 2) in
  Alcotest.(check bool) "exactly half: ambiguous, not newer" false
    (Sequence.newer c a)

let prop_sequence_antisymmetric =
  QCheck2.Test.make ~name:"newer is antisymmetric" ~count:500
    QCheck2.Gen.(pair (int_range 0 65535) (int_range 0 65535))
    (fun (a, b) ->
      let sa = Sequence.of_int a and sb = Sequence.of_int b in
      not (Sequence.newer sa sb && Sequence.newer sb sa))

(* --- Updates --- *)

let test_update_size () =
  let u =
    { Update.origin = Node.of_int 0;
      seq = Sequence.zero;
      costs = [ (Link.id_of_int 0, 30); (Link.id_of_int 2, 45) ] }
  in
  Alcotest.(check (float 1e-9)) "header + 2 links" (128. +. 96.)
    (Update.size_bits u)

(* --- Flooder / Broadcast --- *)

let ring5 () = Generators.ring 5

let make_flooders g =
  Array.init (Graph.node_count g) (fun i ->
      Flooder.create g ~owner:(Node.of_int i))

let test_flood_reaches_everyone () =
  let g = ring5 () in
  let flooders = make_flooders g in
  let u = Flooder.originate flooders.(0) ~costs:[ (Link.id_of_int 0, 42) ] in
  let o = Broadcast.flood g flooders u in
  Alcotest.(check int) "all nodes reached" 5 o.Broadcast.reached;
  Alcotest.(check bool) "some duplicates on a ring" true (o.Broadcast.duplicates > 0);
  Alcotest.(check bool) "bits accounted" true (o.Broadcast.bits > 0.)

let test_flood_dedup_on_replay () =
  let g = ring5 () in
  let flooders = make_flooders g in
  let u = Flooder.originate flooders.(0) ~costs:[ (Link.id_of_int 0, 42) ] in
  ignore (Broadcast.flood g flooders u);
  (* Replaying the same update must die immediately at every neighbor. *)
  let o2 = Broadcast.flood g flooders u in
  Alcotest.(check int) "replay reaches only the origin" 1 o2.Broadcast.reached

let test_flood_newer_supersedes () =
  let g = ring5 () in
  let flooders = make_flooders g in
  let u1 = Flooder.originate flooders.(0) ~costs:[ (Link.id_of_int 0, 42) ] in
  ignore (Broadcast.flood g flooders u1);
  let u2 = Flooder.originate flooders.(0) ~costs:[ (Link.id_of_int 0, 50) ] in
  let o = Broadcast.flood g flooders u2 in
  Alcotest.(check int) "newer update floods fully" 5 o.Broadcast.reached;
  (match Flooder.last_seq flooders.(3) (Node.of_int 0) with
  | Some s -> Alcotest.(check int) "remote node tracks newest" (Sequence.to_int u2.Update.seq) (Sequence.to_int s)
  | None -> Alcotest.fail "expected sequence recorded")

let test_flood_never_reverses_arrival_link () =
  let g = ring5 () in
  let f = Flooder.create g ~owner:(Node.of_int 1) in
  (* Node 1's links: to node 2 and to node 0.  An update from node 0
     arriving over 0->1 must not be forwarded back over 1->0. *)
  let incoming =
    Option.get (Graph.find_link g ~src:(Node.of_int 0) ~dst:(Node.of_int 1))
  in
  let back =
    Option.get (Graph.find_link g ~src:(Node.of_int 1) ~dst:(Node.of_int 0))
  in
  let u =
    { Update.origin = Node.of_int 0; seq = Sequence.next Sequence.zero;
      costs = [] }
  in
  match Flooder.receive f ~arrived_on:(Some incoming.Link.id) u with
  | Flooder.Fresh forward ->
    Alcotest.(check bool) "not sent back" false
      (List.exists (Link.id_equal back.Link.id) forward);
    Alcotest.(check int) "forwarded to the other side" 1 (List.length forward)
  | Flooder.Duplicate -> Alcotest.fail "first sighting must be fresh"

let prop_flood_covers_random_graphs =
  QCheck2.Test.make ~name:"flood reaches every node on random graphs" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 20 in
      let g = Generators.ring_chord rng ~nodes ~chords:(Rng.int rng nodes) in
      let flooders = make_flooders g in
      let origin = Rng.int rng nodes in
      let counted = (Broadcast.instant_transmissions g).(origin) in
      let flood_once () =
        Broadcast.flood g flooders (Flooder.originate flooders.(origin) ~costs:[])
      in
      let o = flood_once () in
      (* A second flood runs on flooders that have all seen the first:
         the count must not depend on that history. *)
      let o2 = flood_once () in
      o.Broadcast.reached = nodes
      (* Conservation: every transmission is either a fresh acceptance at
         its receiving end or a duplicate discard. *)
      && o.Broadcast.transmissions = o.Broadcast.reached - 1 + o.Broadcast.duplicates
      (* The simulators charge the count instead of walking the flood. *)
      && o.Broadcast.transmissions = counted
      && o2.Broadcast.transmissions = counted
      && counted = Graph.link_count g - nodes + 1)

(* Two disjoint rings, of 4 and 5 nodes: a flood stays in its origin's
   component, so the counts are per component.  The flow simulator runs
   disconnected topologies too (only [arpanet_check] flags them, T002). *)
let test_instant_count_per_component () =
  let b = Builder.create () in
  let ring prefix size =
    for i = 0 to size - 1 do
      ignore
        (Builder.trunk b Line_type.T56
           (Printf.sprintf "%s%d" prefix i)
           (Printf.sprintf "%s%d" prefix ((i + 1) mod size)))
    done
  in
  ring "A" 4;
  ring "B" 5;
  let g = Builder.build b in
  let counts = Broadcast.instant_transmissions g in
  let flooders = make_flooders g in
  Graph.iter_nodes g (fun n ->
      let name = Graph.node_name g n in
      let size = if name.[0] = 'A' then 4 else 5 in
      (* A ring of k nodes has 2k simplex links: 2k - k + 1 = k + 1. *)
      Alcotest.(check int) (name ^ " count") (size + 1) counts.(Node.to_int n);
      let u = Flooder.originate flooders.(Node.to_int n) ~costs:[] in
      let o = Broadcast.flood g flooders u in
      Alcotest.(check int) (name ^ " walk") (size + 1) o.Broadcast.transmissions;
      Alcotest.(check int) (name ^ " reach") size o.Broadcast.reached)

(* The October 1980 pathology: three sequence numbers forming a cycle
   under the half-space comparison keep every update alive forever. *)
let test_cyclic_sequences_never_die () =
  let third = Sequence.space / 3 in
  let a = Sequence.of_int 0 in
  let b = Sequence.of_int third in
  let c = Sequence.of_int (2 * third) in
  Alcotest.(check bool) "b newer than a" true (Sequence.newer b a);
  Alcotest.(check bool) "c newer than b" true (Sequence.newer c b);
  Alcotest.(check bool) "a newer than c (the wrap!)" true (Sequence.newer a c);
  let g = ring5 () in
  let flooders = make_flooders g in
  let update seq =
    { Update.origin = Node.of_int 0; seq; costs = [ (Link.id_of_int 0, 30) ] }
  in
  (* Every round of the three updates floods fully, forever. *)
  for _round = 1 to 4 do
    List.iter
      (fun seq ->
        let o = Broadcast.flood g flooders (update seq) in
        Alcotest.(check int) "still accepted everywhere" 5 o.Broadcast.reached)
      [ a; b; c ]
  done

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_flooding"
    [ ( "sequence",
        [ Alcotest.test_case "basics" `Quick test_sequence_basics;
          Alcotest.test_case "wraps" `Quick test_sequence_wraps;
          Alcotest.test_case "half space" `Quick test_sequence_half_space ]
        @ qsuite [ prop_sequence_antisymmetric ] );
      ("update", [ Alcotest.test_case "size" `Quick test_update_size ]);
      ( "flooding",
        [ Alcotest.test_case "reaches everyone" `Quick test_flood_reaches_everyone;
          Alcotest.test_case "dedup replay" `Quick test_flood_dedup_on_replay;
          Alcotest.test_case "newer supersedes" `Quick test_flood_newer_supersedes;
          Alcotest.test_case "no reverse forwarding" `Quick
            test_flood_never_reverses_arrival_link;
          Alcotest.test_case "instant count per component" `Quick
            test_instant_count_per_component;
          Alcotest.test_case "crash of 1980" `Quick test_cyclic_sequences_never_die ]
        @ qsuite [ prop_flood_covers_random_graphs ] ) ]
