(* The Fig 1 experiment as a runnable demo: two regions joined by two
   identical trunks, heavy inter-region traffic, and three metrics side by
   side.  D-SPF slams all traffic from one bridge to the other every
   routing period; HN-SPF settles into load sharing; min-hop just sits on
   whatever SPF picked first.

     dune exec examples/oscillation_demo.exe
*)

open Routing_topology
module Flow_sim = Routing_sim.Flow_sim
module Measure = Routing_sim.Measure
module Metric = Routing_metric.Metric

let bar width u =
  let filled = int_of_float (Float.min 1.5 u /. 1.5 *. float_of_int width) in
  String.init width (fun i -> if i < filled then '#' else '.')

let () =
  let g, (bridge_a, bridge_b) = Generators.two_region () in
  let tm = Generators.two_region_traffic g in
  Format.printf
    "Two regions, two 56 kb/s bridges, %.0f kb/s offered left-to-right@.\
     (%.0f%% of the combined bridge capacity)@.@."
    (Traffic_matrix.total_bps tm /. 1000.)
    (Traffic_matrix.total_bps tm /. 1120.);
  List.iter
    (fun kind ->
      Format.printf "=== %s ===@." (Metric.kind_name kind);
      Format.printf "%8s  %-24s %-24s@." "time" "bridge A" "bridge B";
      let sim = Flow_sim.create g kind tm in
      for period = 1 to 16 do
        ignore (Flow_sim.step sim);
        let ua = Flow_sim.link_utilization sim bridge_a in
        let ub = Flow_sim.link_utilization sim bridge_b in
        Format.printf "%6.0f s  %s %4.2f   %s %4.2f@."
          (float_of_int period *. 10.)
          (bar 16 ua) ua (bar 16 ub) ub
      done;
      let i = Flow_sim.indicators sim ~skip:4 () in
      Format.printf
        "   -> delivered %.1f kb/s of %.1f offered, %.0f ms rtt, %.1f drops/s@.@."
        (i.Measure.internode_traffic_bps /. 1000.)
        (Traffic_matrix.total_bps tm /. 1000.)
        i.Measure.round_trip_delay_ms i.Measure.dropped_per_s)
    [ Metric.D_spf; Metric.Hn_spf; Metric.Min_hop ];
  Format.printf
    "The D-SPF run reproduces §3.3: \"links A and B alternating (instead of@.\
     cooperating) as traffic carriers\"; under HN-SPF the bridges share.@."
