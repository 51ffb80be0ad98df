(* Experiment harness: regenerates every table and figure of the paper's
   evaluation, printing paper-reported values (where the paper gives them)
   next to what this reproduction measures.  See DESIGN.md §4 for the
   experiment index and EXPERIMENTS.md for recorded outcomes.

     dune exec bench/main.exe             # all experiments
     dune exec bench/main.exe -- fig10 table1
     dune exec bench/main.exe -- perf     # bechamel micro-benchmarks
*)

open Routing_topology
module Flow_sim = Routing_sim.Flow_sim
module Network = Routing_sim.Network
module Measure = Routing_sim.Measure
module Metric = Routing_metric.Metric
module Units = Routing_metric.Units
module Hnm = Routing_metric.Hnm
module Dspf = Routing_metric.Dspf
module Metric_map = Routing_equilibrium.Metric_map
module Response_map = Routing_equilibrium.Response_map
module Fixed_point = Routing_equilibrium.Fixed_point
module Cobweb = Routing_equilibrium.Cobweb
module Rng = Routing_stats.Rng
module Table = Routing_stats.Table

let section title =
  let rule = String.make 78 '=' in
  Format.printf "@.%s@.%s@.%s@." rule title rule

let note fmt = Format.printf fmt

(* Shared fixtures. *)
let arpanet = lazy (Arpanet.topology ())

let peak_tm = lazy (Arpanet.peak_traffic (Rng.create 7) (Lazy.force arpanet))

let response_map =
  lazy (Response_map.compute (Lazy.force arpanet) (Lazy.force peak_tm))

let probe () = Arpanet.representative_link (Lazy.force arpanet)

let two_region_tm g =
  let tm = Traffic_matrix.create ~nodes:(Graph.node_count g) in
  Graph.iter_nodes g (fun src ->
      Graph.iter_nodes g (fun dst ->
          let sn = Graph.node_name g src and dn = Graph.node_name g dst in
          if sn.[0] = 'L' && dn.[0] = 'R' then
            Traffic_matrix.set tm ~src ~dst 1300.));
  tm

(* ------------------------------------------------------------------ *)
(* Fig 1 / §3.3: routing oscillations between two inter-region links.  *)

let fig1 () =
  section
    "Fig 1 — routing oscillations: two regions joined by links A and B";
  let g, (a, b) = Generators.two_region () in
  let tm = two_region_tm g in
  note
    "offered inter-region load: %.1f kb/s over two 56 kb/s bridges (%.0f%%)@."
    (Traffic_matrix.total_bps tm /. 1000.)
    (Traffic_matrix.total_bps tm /. 1120.);
  let t =
    Table.create
      [ ("period", Table.Right); ("D-SPF A", Table.Right);
        ("D-SPF B", Table.Right); ("HN-SPF A", Table.Right);
        ("HN-SPF B", Table.Right) ]
  in
  let dsim = Flow_sim.create g Metric.D_spf tm in
  let hsim = Flow_sim.create g Metric.Hn_spf tm in
  for period = 1 to 16 do
    ignore (Flow_sim.step dsim);
    ignore (Flow_sim.step hsim);
    Table.add_row t
      [ string_of_int period;
        Printf.sprintf "%.2f" (Flow_sim.link_utilization dsim a);
        Printf.sprintf "%.2f" (Flow_sim.link_utilization dsim b);
        Printf.sprintf "%.2f" (Flow_sim.link_utilization hsim a);
        Printf.sprintf "%.2f" (Flow_sim.link_utilization hsim b) ]
  done;
  print_string (Table.to_string t);
  note
    "paper: with D-SPF \"links A and B alternating (instead of cooperating)@.\
     as traffic carriers\" — only 50%% of inter-region bandwidth usable.@.\
     measured: D-SPF flips the full load every 10 s period; HN-SPF settles@.\
     into stable sharing within ~3 periods.@."

(* ------------------------------------------------------------------ *)
(* Fig 4: normalized metric comparison for a 56 kb/s line.             *)

let line_of lt =
  let b = Builder.create () in
  let _ = Builder.trunk b lt "A" "B" in
  let g = Builder.build b in
  Graph.link g (Link.id_of_int 0)

let fig4 () =
  section "Fig 4 — comparison of metrics (normalized) for a 56 kb/s line";
  let t56 = line_of Line_type.T56 and s56 = line_of Line_type.S56 in
  let t =
    Table.create
      [ ("utilization", Table.Right); ("D-SPF terr", Table.Right);
        ("HN-SPF terr", Table.Right); ("HN-SPF sat", Table.Right) ]
  in
  List.iter
    (fun u ->
      let hops kind l = Metric_map.cost_in_hops kind l ~utilization:u in
      Table.add_row t
        [ Printf.sprintf "%.2f" u;
          Printf.sprintf "%.2f" (hops Metric.D_spf t56);
          Printf.sprintf "%.2f" (hops Metric.Hn_spf t56);
          Printf.sprintf "%.2f" (hops Metric.Hn_spf s56) ])
    [ 0.; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 0.99 ];
  print_string (Table.to_string t);
  let curve kind l =
    Array.to_list (Metric_map.normalized kind l ~samples:40)
  in
  print_string
    (Routing_stats.Ascii_plot.render ~height:14
       ~x_label:"utilization" ~y_label:"relative cost (hops, clipped at 6)"
       [ { Routing_stats.Ascii_plot.label = "D-SPF terrestrial"; glyph = 'd';
           points =
             List.map (fun (u, h) -> (u, Float.min 6. h)) (curve Metric.D_spf t56) };
         { Routing_stats.Ascii_plot.label = "HN-SPF terrestrial"; glyph = 'h';
           points = curve Metric.Hn_spf t56 };
         { Routing_stats.Ascii_plot.label = "HN-SPF satellite"; glyph = 's';
           points =
             List.map
               (fun (u, h) ->
                 (* plot satellite relative to the terrestrial idle cost so
                    its higher floor is visible, as in the paper's figure *)
                 ( u,
                   h
                   *. float_of_int (Metric_map.idle_cost Metric.Hn_spf s56)
                   /. float_of_int (Metric_map.idle_cost Metric.Hn_spf t56) ))
               (curve Metric.Hn_spf s56) } ]);
  note
    "paper: D-SPF \"much steeper ... at high utilization levels\"; HN-SPF@.\
     constant until 50%% utilization, then linear to 3 hops (min 30, max@.\
     90 units); satellite starts higher, equal when highly utilized.@.\
     measured: all three properties hold (columns are in hops = cost/idle).@."

(* ------------------------------------------------------------------ *)
(* Fig 5: absolute bounds for four line types.                         *)

let fig5 () =
  section "Fig 5 — absolute bounds: HN-SPF cost in routing units";
  let lines =
    [ ("9.6 sat", line_of Line_type.S9_6); ("9.6 terr", line_of Line_type.T9_6);
      ("56 sat", line_of Line_type.S56); ("56 terr", line_of Line_type.T56) ]
  in
  let t =
    Table.create
      (("utilization", Table.Right)
      :: List.map (fun (name, _) -> (name, Table.Right)) lines)
  in
  List.iter
    (fun u ->
      Table.add_row t
        (Printf.sprintf "%.2f" u
        :: List.map
             (fun (_, l) ->
               string_of_int (Metric.equilibrium_cost Metric.Hn_spf l ~utilization:u))
             lines))
    [ 0.; 0.25; 0.5; 0.6; 0.7; 0.8; 0.9; 0.99 ];
  print_string (Table.to_string t);
  let full96 =
    Metric.equilibrium_cost Metric.Hn_spf (line_of Line_type.T9_6) ~utilization:1.
  in
  let idle56 =
    Metric.equilibrium_cost Metric.Hn_spf (line_of Line_type.T56) ~utilization:0.
  in
  note
    "paper: a fully utilized 9.6 kb/s line reports ~7x an idle 56 kb/s line@.\
     (vs ~127x under the delay metric); idle 56 sat < idle 9.6 terr.@.\
     measured: %d / %d = %.1fx.@."
    full96 idle56
    (float_of_int full96 /. float_of_int idle56)

(* ------------------------------------------------------------------ *)
(* Fig 7: reported cost needed to shed routes, by route length.        *)

let fig7 () =
  section "Fig 7 — reported cost (hops) needed to shed routes";
  let stats =
    Response_map.shed_statistics (Lazy.force arpanet) (Lazy.force peak_tm)
  in
  let t =
    Table.create
      [ ("route length", Table.Right); ("routes", Table.Right);
        ("mean", Table.Right); ("stddev", Table.Right); ("min", Table.Right);
        ("max", Table.Right) ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [ string_of_int s.Response_map.route_hops;
          string_of_int s.Response_map.routes;
          Printf.sprintf "%.2f" s.Response_map.mean_shed_hops;
          Printf.sprintf "%.2f" s.Response_map.stddev_shed_hops;
          Printf.sprintf "%.0f" s.Response_map.min_shed_hops;
          Printf.sprintf "%.0f" s.Response_map.max_shed_hops ])
    stats;
  print_string (Table.to_string t);
  (match stats with
  | one_hop :: _ ->
    note
      "paper: 1-hop routes shed at 4 hops on average, 8 max; long routes@.\
       have alternates only slightly longer.  measured: 1-hop mean %.1f,@.\
       max %.0f, declining with route length as in the paper.@."
      one_hop.Response_map.mean_shed_hops one_hop.Response_map.max_shed_hops
  | [] -> ());
  (* "The characteristics of individual links differ from the 'average'
     link": the same statistic restricted to link classes. *)
  let class_mean name pred =
    let stats =
      Response_map.shed_statistics ~links:pred (Lazy.force arpanet)
        (Lazy.force peak_tm)
    in
    let n = List.fold_left (fun acc s -> acc + s.Response_map.routes) 0 stats in
    let sum =
      List.fold_left
        (fun acc s ->
          acc +. (s.Response_map.mean_shed_hops *. float_of_int s.Response_map.routes))
        0. stats
    in
    if n > 0 then
      note "  %-28s %6d routes, mean shed %.2f hops@." name n
        (sum /. float_of_int n)
  in
  note "@.per link class (mean over that class's routes):@.";
  let bridges = Arpanet.bridge_links (Lazy.force arpanet) in
  class_mean "cross-country trunks:" (fun l ->
      List.exists (fun (b : Link.t) -> Link.id_equal b.Link.id l.Link.id) bridges);
  class_mean "satellite trunks:" (fun (l : Link.t) ->
      Line_type.is_satellite l.Link.line_type);
  class_mean "9.6 kb/s tails:" (fun (l : Link.t) ->
      Line_type.bandwidth_bps l.Link.line_type <= 9_600.);
  class_mean "56 kb/s terrestrial mesh:" (fun (l : Link.t) ->
      (not (Line_type.is_satellite l.Link.line_type))
      && Line_type.bandwidth_bps l.Link.line_type > 9_600.)

(* ------------------------------------------------------------------ *)
(* Fig 8: the Network Response Map.                                    *)

let fig8 () =
  section "Fig 8 — overall network response to reported cost";
  let rm = Lazy.force response_map in
  let t =
    Table.create
      [ ("reported cost (hops)", Table.Right);
        ("normalized traffic", Table.Right) ]
  in
  Array.iter
    (fun (x, y) ->
      Table.add_row t [ Printf.sprintf "%.1f" x; Printf.sprintf "%.2f" y ])
    (Response_map.points rm);
  print_string (Table.to_string t);
  print_string
    (Routing_stats.Ascii_plot.render ~height:12 ~x_label:"reported cost (hops)"
       ~y_label:"normalized traffic"
       [ { Routing_stats.Ascii_plot.label = "average link"; glyph = '*';
           points = Array.to_list (Response_map.points rm) } ]);
  let captive =
    Routing_topology.Graph_analysis.captive_traffic_fraction
      (Lazy.force arpanet) (Lazy.force peak_tm)
  in
  note
    "paper: sharp fall between 0.5 and 1.5 hops (the epsilon problem); a@.\
     link reporting 4 sheds over 90%% of base traffic.  measured: %.2f ->@.\
     %.2f across one hop; %.0f%% shed at cost 4.  The %.2f floor is@.\
     captive traffic: %.0f%% of the matrix crosses a bridge trunk and can@.\
     never be shed at any cost.@."
    (Response_map.traffic_at rm 0.5)
    (Response_map.traffic_at rm 1.5)
    (100. *. (1. -. Response_map.traffic_at rm 4.))
    (Response_map.traffic_at rm 9.5)
    (100. *. captive)

(* ------------------------------------------------------------------ *)
(* Fig 9: equilibrium calculation (metric map x response map).         *)

let fig9 () =
  section "Fig 9 — equilibrium calculation for a 56 kb/s link";
  let rm = Lazy.force response_map in
  let t =
    Table.create
      [ ("offered load", Table.Right); ("D-SPF cost (hops)", Table.Right);
        ("D-SPF util", Table.Right); ("HN-SPF cost (hops)", Table.Right);
        ("HN-SPF util", Table.Right) ]
  in
  List.iter
    (fun load ->
      let d = Fixed_point.equilibrium Metric.D_spf (probe ()) rm ~offered_load:load in
      let h = Fixed_point.equilibrium Metric.Hn_spf (probe ()) rm ~offered_load:load in
      Table.add_row t
        [ Printf.sprintf "%.0f%%" (100. *. load);
          Printf.sprintf "%.2f" d.Fixed_point.cost_hops;
          Printf.sprintf "%.2f" d.Fixed_point.utilization;
          Printf.sprintf "%.2f" h.Fixed_point.cost_hops;
          Printf.sprintf "%.2f" h.Fixed_point.utilization ])
    [ 0.5; 0.75; 1.0; 1.5; 2.0 ];
  print_string (Table.to_string t);
  note
    "paper: the equilibrium moves with offered load; HN-SPF's equilibrium@.\
     keeps more traffic on the link than D-SPF's.  measured: above, solved@.\
     by bisection on cost = M(load * n(cost)) as in §5.3.@."

(* ------------------------------------------------------------------ *)
(* Fig 10: equilibrium utilization vs offered load.                    *)

let fig10 () =
  section "Fig 10 — equilibrium traffic for a heavily utilized line";
  let rm = Lazy.force response_map in
  let t =
    Table.create
      [ ("min-hop offered load", Table.Right); ("ideal", Table.Right);
        ("min-hop", Table.Right); ("HN-SPF", Table.Right);
        ("D-SPF", Table.Right) ]
  in
  List.iter
    (fun load ->
      let carried kind =
        (Fixed_point.equilibrium kind (probe ()) rm ~offered_load:load)
          .Fixed_point.carried
      in
      Table.add_row t
        [ Printf.sprintf "%.2f" load;
          Printf.sprintf "%.2f" (Fixed_point.ideal_carried load);
          Printf.sprintf "%.2f" (carried Metric.Min_hop);
          Printf.sprintf "%.2f" (carried Metric.Hn_spf);
          Printf.sprintf "%.2f" (carried Metric.D_spf) ])
    [ 0.1; 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0 ];
  print_string (Table.to_string t);
  let loads = List.init 40 (fun i -> 0.1 +. (float_of_int i *. 0.1)) in
  let curve kind =
    List.map
      (fun load ->
        ( load,
          (Fixed_point.equilibrium kind (probe ()) rm ~offered_load:load)
            .Fixed_point.carried ))
      loads
  in
  print_string
    (Routing_stats.Ascii_plot.render ~height:12
       ~x_label:"min-hop offered load" ~y_label:"equilibrium utilization"
       [ { Routing_stats.Ascii_plot.label = "min-hop"; glyph = 'm';
           points = curve Metric.Min_hop };
         { Routing_stats.Ascii_plot.label = "HN-SPF"; glyph = 'h';
           points = curve Metric.Hn_spf };
         { Routing_stats.Ascii_plot.label = "D-SPF"; glyph = 'd';
           points = curve Metric.D_spf } ]);
  note
    "paper: HN-SPF lies between min-hop and D-SPF — \"it acts like min-hop@.\
     until the link utilization exceeds 50%% and then starts shedding@.\
     traffic, but still maintains higher link utilizations than D-SPF\".@.\
     measured: ordering holds at every load above.@."

(* ------------------------------------------------------------------ *)
(* Figs 11 & 12: dynamic behaviour (cobweb traces).                    *)

let trace_table title traces =
  let t =
    Table.create ~title
      (("period", Table.Right)
      :: List.concat_map
           (fun (name, _) ->
             [ (name ^ " cost(h)", Table.Right); (name ^ " util", Table.Right) ])
           traces)
  in
  let periods = List.length (snd (List.hd traces)) in
  for i = 0 to periods - 1 do
    Table.add_row t
      (string_of_int i
      :: List.concat_map
           (fun (_, tr) ->
             let p = List.nth tr i in
             [ Printf.sprintf "%.1f" p.Cobweb.cost_hops;
               Printf.sprintf "%.2f" p.Cobweb.utilization ])
           traces)
  done;
  print_string (Table.to_string t)

let fig11 () =
  section "Fig 11 — dynamic behaviour of D-SPF at 100% offered load";
  let rm = Lazy.force response_map in
  let tr start =
    Cobweb.trace Metric.D_spf (probe ()) rm ~offered_load:1.0 ~start ~periods:14
  in
  trace_table "D-SPF cobweb iteration"
    [ ("from idle", tr Cobweb.From_idle); ("from max", tr Cobweb.From_max) ];
  print_string
    (Routing_stats.Ascii_plot.render ~height:12 ~x_label:"routing period"
       ~y_label:"reported cost (hops)"
       [ { Routing_stats.Ascii_plot.label = "D-SPF cost"; glyph = 'd';
           points =
             List.map
               (fun p -> (float_of_int p.Cobweb.period, p.Cobweb.cost_hops))
               (tr Cobweb.From_idle) } ]);
  let amplitude = Cobweb.tail_amplitude (tr Cobweb.From_idle) ~last:8 in
  note
    "paper: \"for heavy offered loads D-SPF is unstable and will oscillate@.\
     between being oversubscribed and idle\"; the equilibrium is only@.\
     meta-stable.  measured: tail amplitude %.1f hops — the full swing@.\
     between the bias floor and the congested ceiling, every period.@."
    amplitude

let fig12 () =
  section "Fig 12 — dynamic behaviour of HN-SPF at 100% offered load";
  let rm = Lazy.force response_map in
  let tr start =
    Cobweb.trace Metric.Hn_spf (probe ()) rm ~offered_load:1.0 ~start ~periods:14
  in
  let from_idle = tr Cobweb.From_idle in
  let easing = tr Cobweb.From_max in
  trace_table "HN-SPF cobweb iteration"
    [ ("from idle", from_idle); ("easing in", easing) ];
  let as_points trace =
    List.map (fun p -> (float_of_int p.Cobweb.period, p.Cobweb.cost_hops)) trace
  in
  print_string
    (Routing_stats.Ascii_plot.render ~height:12 ~x_label:"routing period"
       ~y_label:"reported cost (hops)"
       [ { Routing_stats.Ascii_plot.label = "from idle"; glyph = 'h';
           points = as_points from_idle };
         { Routing_stats.Ascii_plot.label = "easing in (new link)"; glyph = 'e';
           points = as_points easing } ]);
  note
    "paper: HN-SPF converges, oscillating around the equilibrium with an@.\
     amplitude bounded by the half-hop movement limit; a new link starts@.\
     at its maximum cost and is eased in.  measured: tail amplitude %.2f@.\
     hops (bound %.2f); easing-in walks down from 3.0 hops and settles.@."
    (Cobweb.tail_amplitude from_idle ~last:8)
    (16. /. 30.)

(* ------------------------------------------------------------------ *)
(* Table 1: network-wide performance indicators, before vs after.      *)

let table1 () =
  section "Table 1 — ARPANET network-wide performance indicators";
  let g = Lazy.force arpanet in
  let tm = Lazy.force peak_tm in
  let run kind scale =
    let sim = Flow_sim.create g kind (Traffic_matrix.scale tm scale) in
    ignore (Flow_sim.run sim ~periods:210);
    Flow_sim.indicators sim ~skip:30 ()
  in
  let run_adaptive kind scale =
    let sim = Flow_sim.create g kind (Traffic_matrix.scale tm scale) in
    Flow_sim.set_adaptive_sources sim true;
    ignore (Flow_sim.run sim ~periods:210);
    Flow_sim.indicators sim ~skip:30 ()
  in
  (* May 87 = D-SPF at 1.0x; Aug 87 = HN-SPF at 1.13x (+13% traffic). *)
  let may = run Metric.D_spf 1.0 in
  let aug = run Metric.Hn_spf 1.13 in
  let may_a = run_adaptive Metric.D_spf 1.0 in
  let aug_a = run_adaptive Metric.Hn_spf 1.13 in
  print_string
    (Table.to_string
       (Measure.comparison_table
          ~title:
            "measured (flow simulator, 30 min after 5 min warm-up; 'adapt' = \
             sources back off under loss, as 1987 hosts did)"
          [ ("May (D-SPF)", may); ("Aug (HN-SPF)", aug);
            ("May adapt", may_a); ("Aug adapt", aug_a) ]));
  let paper =
    Table.create ~title:"paper (Table 1)"
      [ ("Indicator", Table.Left); ("May 87", Table.Right);
        ("Aug 87", Table.Right) ]
  in
  List.iter
    (fun (label, a, b) -> Table.add_row paper [ label; a; b ])
    [ ("Internode Traffic (kb/s)", "366.26", "413.99");
      ("Round Trip Delay (ms)", "635.45", "338.59");
      ("Rtng. Updates per Net/s", "2.04", "1.74");
      ("Update Period per Node (s)", "22.06", "26.32");
      ("Internode Actual Path (hops)", "4.91", "3.70");
      ("Internode Minimum Path (hops)", "3.97", "3.24");
      ("Path Ratio (Actual/Min.)", "1.24", "1.14") ];
  print_string (Table.to_string paper);
  note
    "shape check: delay falls %.0f%% (paper: 46%%) despite +13%% offered@.\
     traffic; updates fall %.0f%% (paper: 19%%); path ratio improves@.\
     %.2f -> %.2f (paper: 1.24 -> 1.14).  Our D-SPF run degrades harder@.\
     than the 1987 ARPANET because the simulator offers the full matrix@.\
     relentlessly; directions and relative magnitudes match.@."
    (100. *. (1. -. (aug.Measure.round_trip_delay_ms /. may.Measure.round_trip_delay_ms)))
    (100. *. (1. -. (aug.Measure.updates_per_s /. may.Measure.updates_per_s)))
    may.Measure.path_ratio aug.Measure.path_ratio

(* ------------------------------------------------------------------ *)
(* Table 1 at packet level: the DES cross-check (not in the default     *)
(* sweep; run as `bench/main.exe table1p`).                             *)

let table1p () =
  section "table1p — Table 1 re-measured by the packet-level DES";
  let g = Lazy.force arpanet in
  let tm = Lazy.force peak_tm in
  let run kind scale =
    let config =
      { (Network.default_config kind) with
        Network.seed = 7;
        record_series = false }
    in
    let net = Network.create ~config g (Traffic_matrix.scale tm scale) in
    Network.run net ~duration_s:300.;
    Network.reset_measurements net;
    Network.run net ~duration_s:900.;
    net
  in
  let may = run Metric.D_spf 1.0 in
  let aug = run Metric.Hn_spf 1.13 in
  print_string
    (Table.to_string
       (Measure.comparison_table
          ~title:"measured (packet DES, 15 min after 5 min warm-up)"
          [ ("May 87 (D-SPF)", may |> Network.indicators);
            ("Aug 87 (HN-SPF)", aug |> Network.indicators) ]));
  let aug_i = Network.indicators aug and may_i = Network.indicators may in
  note
    ("Every packet individually generated, queued, measured and forwarded@."
    ^^ " (finite 40-packet buffers, real 10 s measurement windows, real@."
    ^^ " flooding).  Direction matches the flow simulator's Table 1: delay@."
    ^^ " %.0f%% lower under HN-SPF at +13%% traffic, drops %.1fx lower.@."
    ^^ " Delay percentiles (one-way): D-SPF p50 %.0f / p95 %.0f ms;@."
    ^^ " HN-SPF p50 %.0f / p95 %.0f ms.@.")
    (100. *. (1. -. (aug_i.Measure.round_trip_delay_ms /. may_i.Measure.round_trip_delay_ms)))
    (may_i.Measure.dropped_per_s /. Float.max 0.01 aug_i.Measure.dropped_per_s)
    (Network.median_delay_ms may) (Network.p95_delay_ms may)
    (Network.median_delay_ms aug) (Network.p95_delay_ms aug)

(* ------------------------------------------------------------------ *)
(* Fig 13: dropped packets per day, before/after the HNM install.      *)

let fig13 () =
  section "Fig 13 — dropped packets per weekday around the HNM install";
  let g = Lazy.force arpanet in
  let tm = Lazy.force peak_tm in
  let days = 70 in
  let install_day = 35 in
  let periods_per_day = 30 (* 5 simulated minutes of peak hour per day *) in
  let sim = Flow_sim.create g Metric.D_spf tm in
  let t =
    Table.create
      [ ("day", Table.Right); ("metric", Table.Left);
        ("traffic scale", Table.Right); ("dropped pkt/s", Table.Right);
        ("delivered kb/s", Table.Right) ]
  in
  for day = 1 to days do
    (* Traffic grows ~0.35% per weekday: +13% over the 35 pre-install
       days, continuing afterwards ("despite ever-increasing traffic"). *)
    let scale = 1.0 +. (0.0037 *. float_of_int (day - 1)) in
    Flow_sim.set_traffic sim (Traffic_matrix.scale tm scale);
    if day = install_day then Flow_sim.switch_metric sim Metric.Hn_spf;
    let day_stats = Flow_sim.run sim ~periods:periods_per_day in
    let dropped =
      List.fold_left (fun acc s -> acc +. s.Flow_sim.dropped_bps) 0. day_stats
      /. float_of_int periods_per_day /. 600.
    in
    let delivered =
      List.fold_left (fun acc s -> acc +. s.Flow_sim.delivered_bps) 0. day_stats
      /. float_of_int periods_per_day /. 1000.
    in
    if day mod 5 = 0 || day = 1 || day = install_day || day = install_day - 1
    then
      Table.add_row t
        [ string_of_int day;
          (if day >= install_day then "HN-SPF" else "D-SPF");
          Printf.sprintf "%.3f" scale;
          Printf.sprintf "%.1f" dropped;
          Printf.sprintf "%.1f" delivered ]
  done;
  print_string (Table.to_string t);
  note
    "paper: \"sharp drop in the number of dropped packets after the@.\
     deployment of the patch ... despite ever-increasing traffic levels\".@.\
     measured: the install-day discontinuity above.@."

(* ------------------------------------------------------------------ *)
(* Ablations of the HNM's design choices (ours; §4.3's mechanisms       *)
(* switched off one at a time).                                         *)

module Hnm_m = Routing_metric.Hnm
module Hnm_params = Routing_metric.Hnm_params

let ablate () =
  section "ablate — what each HNM mechanism buys (ours, beyond the paper)";
  let g, (a, b) = Generators.two_region () in
  (* Harsher than Fig 1: 103% of the combined bridge capacity, where the
     equilibrium sits on the steep part of the response map. *)
  let tm = Traffic_matrix.scale (two_region_tm g) 1.38 in
  let wide_bounds_params lt =
    (* Relax the "at most two additional hops" judgment call (§4.4) to
       seven additional hops: same flat-then-linear shape, 8x ceiling. *)
    let p = Hnm_params.for_line_type lt in
    let base = p.Hnm_params.base_min in
    { p with
      Hnm_params.max_cost = 8 * base;
      slope = float_of_int (14 * base);
      offset = float_of_int (-6 * base) }
  in
  let variants =
    [ ("full HNM", fun lt -> Hnm_m.default_config lt);
      ( "no averaging",
        fun lt -> { (Hnm_m.default_config lt) with Hnm_m.averaging = false } );
      ( "no movement limits",
        fun lt ->
          { (Hnm_m.default_config lt) with Hnm_m.movement_limits = false } );
      ( "symmetric limits (no march-up)",
        fun lt -> { (Hnm_m.default_config lt) with Hnm_m.march_up = false } );
      ( "wide bounds (max 8x min)",
        fun lt ->
          { (Hnm_m.default_config lt) with Hnm_m.params = wide_bounds_params lt }
      );
      ( "no averaging + no limits",
        fun lt ->
          { (Hnm_m.default_config lt) with
            Hnm_m.averaging = false;
            movement_limits = false } );
      ( "wide bounds + no limits",
        fun lt ->
          { (Hnm_m.default_config lt) with
            Hnm_m.params = wide_bounds_params lt;
            movement_limits = false } ) ]
  in
  let t =
    Table.create
      [ ("variant", Table.Left); ("delivered kb/s", Table.Right);
        ("flap (mean |dU|)", Table.Right); ("routes moved/period", Table.Right);
        ("updates/s", Table.Right); ("rtt ms", Table.Right) ]
  in
  let dspf_row =
    let sim = Flow_sim.create g Metric.D_spf tm in
    ignore (Flow_sim.run sim ~periods:40);
    sim
  in
  let measure sim =
    (* Oscillation amplitude: mean per-period swing of bridge A's
       utilization over the tail. *)
    ignore b;
    let utils = ref [] in
    for _ = 1 to 20 do
      ignore (Flow_sim.step sim);
      utils := Flow_sim.link_utilization sim a :: !utils
    done;
    let rec swings = function
      | x :: (y :: _ as rest) -> Float.abs (x -. y) :: swings rest
      | _ -> []
    in
    let s = swings !utils in
    let flap = List.fold_left ( +. ) 0. s /. float_of_int (List.length s) in
    let i = Flow_sim.indicators sim ~skip:30 () in
    let tail = List.filteri (fun k _ -> k >= 40) (Flow_sim.history sim) in
    let moved =
      List.fold_left (fun acc st -> acc + st.Flow_sim.routes_changed) 0 tail
    in
    ( i.Measure.internode_traffic_bps /. 1000.,
      flap,
      float_of_int moved /. float_of_int (List.length tail),
      i.Measure.updates_per_s,
      i.Measure.round_trip_delay_ms )
  in
  List.iter
    (fun (name, config) ->
      let metric =
        Metric.create_custom_hnspf
          (fun (l : Link.t) -> config l.Link.line_type)
          g
      in
      let sim = Flow_sim.create_with g metric tm in
      ignore (Flow_sim.run sim ~periods:40);
      let delivered, flap, moved, upd, rtt = measure sim in
      ignore (Table.add_float_row t name [ delivered; flap; moved; upd; rtt ]))
    variants;
  let delivered, flap, moved, upd, rtt = measure dspf_row in
  ignore
    (Table.add_float_row t "(D-SPF reference)" [ delivered; flap; moved; upd; rtt ]);
  print_string (Table.to_string t);
  note
    "Two-region scenario at 103%% of the combined bridge capacity.  'flap'@.\
     is the mean per-period swing of bridge A's utilization: 0 = settled,@.\
     ~2 = the full stampede.  Reading the ladder: the absolute clip@.\
     (max 2 extra hops) is the strongest single stabilizer — widening it@.\
     alone brings back oscillation; removing the movement limits on top@.\
     reproduces the D-SPF meltdown almost exactly.  With the clip in@.\
     place, averaging, movement limits and the march-up are individually@.\
     redundant here: the HNM is defense in depth.@."

(* ------------------------------------------------------------------ *)
(* Three generations of ARPANET routing (ours, from §2's history).      *)

module Bf_sim = Routing_bellman.Bellman_sim

let gen3 () =
  section "gen3 — 1969 Bellman-Ford vs 1979 D-SPF vs 1987 HN-SPF (ours)";
  let rng = Rng.create 31 in
  let g = Generators.ring_chord rng ~nodes:16 ~chords:10 in
  let tm =
    Traffic_matrix.gravity (Rng.create 32) ~nodes:(Graph.node_count g)
      ~total_bps:250_000.
  in
  let tm = Traffic_matrix.scale tm 1.9 in
  note "16-node mesh, %.0f kb/s offered (heavy).@."
    (Traffic_matrix.total_bps tm /. 1000.);
  let t =
    Table.create
      [ ("generation", Table.Left); ("delivered kb/s", Table.Right);
        ("rtt ms", Table.Right); ("loop pairs/period", Table.Right) ]
  in
  (* 1969: distributed Bellman-Ford, instantaneous queue metric. *)
  let bf = Bf_sim.create ~seed:5 g tm in
  let bf_stats = List.filteri (fun i _ -> i >= 5) (Bf_sim.run bf ~periods:25) in
  let bf_n = float_of_int (List.length bf_stats) in
  ignore
    (Table.add_float_row t "1969 Bellman-Ford (queue len)"
       [ List.fold_left (fun acc s -> acc +. s.Bf_sim.delivered_bps) 0. bf_stats
         /. bf_n /. 1000.;
         2000.
         *. List.fold_left (fun acc s -> acc +. s.Bf_sim.mean_delay_s) 0. bf_stats
         /. bf_n;
         List.fold_left
           (fun acc s -> acc +. float_of_int s.Bf_sim.looping_pairs)
           0. bf_stats
         /. bf_n ]);
  (* 1979 and 1987: the SPF generations. *)
  List.iter
    (fun (name, kind) ->
      let sim = Flow_sim.create g kind tm in
      ignore (Flow_sim.run sim ~periods:25);
      let i = Flow_sim.indicators sim ~skip:5 () in
      ignore
        (Table.add_float_row t name
           [ i.Measure.internode_traffic_bps /. 1000.;
             i.Measure.round_trip_delay_ms;
             0. (* consistent SPF tables cannot loop *) ]))
    [ ("1979 D-SPF (measured delay)", Metric.D_spf);
      ("1987 HN-SPF (the revision)", Metric.Hn_spf) ];
  print_string (Table.to_string t);
  note
    "The §2 story end to end: Bellman-Ford loops under its volatile@.\
     instantaneous metric; D-SPF is loop-free but oscillates away@.\
     bandwidth; HN-SPF keeps the loop-freedom and the bandwidth.@."

(* ------------------------------------------------------------------ *)
(* Scaling: the metric is "applicable to any network" (§1).             *)

let scaling () =
  section "scaling — HN-SPF stability across network sizes (ours)";
  let t =
    Table.create
      [ ("nodes", Table.Right); ("trunks", Table.Right);
        ("delivered/offered", Table.Right); ("max util", Table.Right);
        ("updates/s", Table.Right); ("ms/period (wall)", Table.Right) ]
  in
  List.iter
    (fun nodes ->
      let rng = Rng.create (1000 + nodes) in
      let g = Generators.ring_chord rng ~nodes ~chords:(nodes / 2) in
      let tm =
        Traffic_matrix.gravity (Rng.create (2000 + nodes)) ~nodes
          ~total_bps:(float_of_int nodes *. 12_000.)
      in
      let sim = Flow_sim.create g Metric.Hn_spf tm in
      let t0 = Unix.gettimeofday () in
      ignore (Flow_sim.run sim ~periods:40);
      let wall = (Unix.gettimeofday () -. t0) /. 40. *. 1000. in
      let i = Flow_sim.indicators sim ~skip:10 () in
      let tail = List.filteri (fun k _ -> k >= 30) (Flow_sim.history sim) in
      let max_util =
        List.fold_left (fun acc s -> Float.max acc s.Flow_sim.max_utilization)
          0. tail
      in
      Table.add_row t
        [ string_of_int nodes;
          string_of_int (Graph.link_count g / 2);
          Printf.sprintf "%.3f"
            (i.Measure.internode_traffic_bps /. Traffic_matrix.total_bps tm);
          Printf.sprintf "%.2f" max_util;
          Printf.sprintf "%.2f" i.Measure.updates_per_s;
          Printf.sprintf "%.2f" wall ])
    [ 16; 32; 64; 128; 256 ];
  print_string (Table.to_string t);
  note
    "Gravity traffic scaled with size.  Delivery stays high and the@.\
     control loop stays quiet as the network grows; wall-clock per period@.\
     grows roughly with nodes x links (the all-pairs SPF).@."

(* ------------------------------------------------------------------ *)
(* Multipath: the §4.5 extension.                                       *)

module Multipath_sim = Routing_multipath.Multipath_sim

let multipath () =
  section "multipath — ECMP extension for large flows (ours, from §4.5)";
  (* The paper's stated limit: one large flow between two parallel paths. *)
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "S" "A" in
  let _ = Builder.trunk b Line_type.T56 "A" "T" in
  let _ = Builder.trunk b Line_type.T56 "S" "B" in
  let _ = Builder.trunk b Line_type.T56 "B" "T" in
  let g = Builder.build b in
  let s = Option.get (Graph.node_by_name g "S") in
  let dst = Option.get (Graph.node_by_name g "T") in
  let t =
    Table.create
      [ ("flow size (kb/s)", Table.Right); ("single-path del.", Table.Right);
        ("ECMP del.", Table.Right); ("single rtt ms", Table.Right);
        ("ECMP rtt ms", Table.Right) ]
  in
  List.iter
    (fun kbps ->
      let tm = Traffic_matrix.create ~nodes:4 in
      Traffic_matrix.set tm ~src:s ~dst (kbps *. 1000.);
      let single = Flow_sim.create g Metric.Hn_spf tm in
      ignore (Flow_sim.run single ~periods:30);
      let si = Flow_sim.indicators single ~skip:10 () in
      let multi = Multipath_sim.create g Metric.Hn_spf tm in
      let mstats = List.filteri (fun i _ -> i >= 10) (Multipath_sim.run multi ~periods:30) in
      let mn = float_of_int (List.length mstats) in
      let m_del =
        List.fold_left (fun acc st -> acc +. st.Multipath_sim.delivered_bps) 0.
          mstats
        /. mn
      in
      let m_rtt =
        2000.
        *. List.fold_left (fun acc st -> acc +. st.Multipath_sim.mean_delay_s) 0.
             mstats
        /. mn
      in
      Table.add_row t
        [ Printf.sprintf "%.0f" kbps;
          Printf.sprintf "%.1f" (si.Measure.internode_traffic_bps /. 1000.);
          Printf.sprintf "%.1f" (m_del /. 1000.);
          Printf.sprintf "%.0f" si.Measure.round_trip_delay_ms;
          Printf.sprintf "%.0f" m_rtt ])
    [ 20.; 40.; 56.; 78.; 100. ];
  print_string (Table.to_string t);
  note
    "One indivisible S->T flow over two equal 2-hop paths.  Past one@.\
     link's capacity (56 kb/s), single-path HN-SPF limit-cycles and@.\
     saturates one path; ECMP splits the flow and carries up to twice@.\
     that — \"load-sharing when network traffic is dominated by several@.\
     large flows would require a multi-path routing algorithm\" (§4.5).@."

(* ------------------------------------------------------------------ *)
(* The MILNET deployment study (the paper's reference [2]).             *)

let milnet () =
  section "milnet — the MILNET deployment, Table-1 style (paper ref [2])";
  let g = Milnet.topology () in
  let tm = Milnet.peak_traffic (Rng.create 11) g in
  note "heterogeneous trunking: %a@." Graph.pp_summary g;
  let run kind scale =
    let sim = Flow_sim.create g kind (Traffic_matrix.scale tm scale) in
    ignore (Flow_sim.run sim ~periods:210);
    Flow_sim.indicators sim ~skip:30 ()
  in
  let before = run Metric.D_spf 1.0 in
  let after = run Metric.Hn_spf 1.1 in
  print_string
    (Table.to_string
       (Measure.comparison_table
          ~title:"measured (flow simulator; +10% traffic after the install)"
          [ ("before (D-SPF)", before); ("after (HN-SPF)", after) ]));
  note
    ("paper: \"it has been successfully deployed in several major networks,@."
    ^^ " including the MILNET\"; the detailed MILNET numbers are in BBN@."
    ^^ " Report 6719 (not public).  measured: the same qualitative wins as@."
    ^^ " Table 1 on a topology that exercises all eight line types - delay@."
    ^^ " %.0f%% lower, updates %.0f%% fewer, drops %.1fx lower.@.")
    (100. *. (1. -. (after.Measure.round_trip_delay_ms /. before.Measure.round_trip_delay_ms)))
    (100. *. (1. -. (after.Measure.updates_per_s /. before.Measure.updates_per_s)))
    (before.Measure.dropped_per_s /. Float.max 0.01 after.Measure.dropped_per_s)

(* ------------------------------------------------------------------ *)
(* Epilogue: the static inverse-capacity metric OSPF later adopted.     *)

let modern () =
  section "modern — epilogue: what OSPF later did (static capacity costs)";
  let g = Lazy.force arpanet in
  let tm = Lazy.force peak_tm in
  note "ARPANET topology, peak traffic swept from light to 1.4x.@.";
  let t =
    Table.create
      (("offered", Table.Left)
      :: List.concat_map
           (fun name -> [ (name ^ " del.", Table.Right); (name ^ " rtt", Table.Right) ])
           [ "min-hop"; "static-cap"; "HN-SPF" ])
  in
  List.iter
    (fun scale ->
      let cells =
        List.concat_map
          (fun kind ->
            let sim = Flow_sim.create g kind (Traffic_matrix.scale tm scale) in
            ignore (Flow_sim.run sim ~periods:40);
            let i = Flow_sim.indicators sim ~skip:10 () in
            [ Printf.sprintf "%.0f" (i.Measure.internode_traffic_bps /. 1000.);
              Printf.sprintf "%.0f" i.Measure.round_trip_delay_ms ])
          [ Metric.Min_hop; Metric.Static_capacity; Metric.Hn_spf ]
      in
      Table.add_row t (Printf.sprintf "%.2fx" scale :: cells))
    [ 0.5; 0.8; 1.0; 1.2; 1.4 ];
  print_string (Table.to_string t);
  note
    ("Static inverse-capacity costs (each link pinned at its HN-SPF idle@."
    ^^ " value - what OSPF reference-bandwidth costs later standardized)@."
    ^^ " improve on min-hop by steering around 9.6 kb/s tails, with zero@."
    ^^ " update traffic and zero oscillation risk; HN-SPF's adaptation@."
    ^^ " then buys the remaining delay and throughput at peak load, where@."
    ^^ " static routing oversubscribes its chosen paths.  History kept the@."
    ^^ " static half and moved the adaptation to end-to-end congestion@."
    ^^ " control - the combination the adaptive-sources experiment runs.@.")

(* ------------------------------------------------------------------ *)
(* Loop gain (§5: "changes both the equilibrium point and the gain").   *)

module Stability = Routing_equilibrium.Stability

let gain () =
  section "gain — control-theoretic loop gain at equilibrium (ours, from §5)";
  let rm = Lazy.force response_map in
  let t =
    Table.create
      [ ("offered load", Table.Right); ("D-SPF raw g", Table.Right);
        ("D-SPF |eig|", Table.Right); ("stable", Table.Left);
        ("HN-SPF raw g", Table.Right); ("HN-SPF |eig|", Table.Right);
        ("stable ", Table.Left) ]
  in
  List.iter
    (fun load ->
      let d = Stability.analyze Metric.D_spf (probe ()) rm ~offered_load:load in
      let h = Stability.analyze Metric.Hn_spf (probe ()) rm ~offered_load:load in
      Table.add_row t
        [ Printf.sprintf "%.2f" load;
          Printf.sprintf "%.2f" d.Stability.raw_gain;
          Printf.sprintf "%.2f" d.Stability.effective_gain;
          (if d.Stability.stable then "yes" else "NO");
          Printf.sprintf "%.2f" h.Stability.raw_gain;
          Printf.sprintf "%.2f" h.Stability.effective_gain;
          (if h.Stability.stable then "yes" else "NO") ])
    [ 0.3; 0.5; 0.7; 0.9; 1.0; 1.2; 1.5; 2.0; 3.0 ];
  print_string (Table.to_string t);
  note
    ("paper (§5): \"In terms of control theory, HN-SPF changes both the@."
    ^^ " equilibrium point and the gain of the routing algorithm.\"@."
    ^^ " measured: D-SPF's loop eigenvalue exceeds 1 above ~65%% load and@."
    ^^ " reaches ~10 at heavy overload (Fig 11's full-range oscillation);@."
    ^^ " HN-SPF's flattened metric map plus the 0.5/0.5 averaging filter@."
    ^^ " (eigenvalue 0.5 + 0.5g, stable for any g > -3) keeps it below 1@."
    ^^ " at every load - with the movement limits as a second, amplitude-@."
    ^^ " bounding line of defense.@.")

(* ------------------------------------------------------------------ *)
(* Congestion spread (§3.3 item 2): how many links run hot over time.   *)

let spread () =
  section "spread — congestion spreading under overload (ours, from §3.3)";
  let g = Lazy.force arpanet in
  let tm = Traffic_matrix.scale (Lazy.force peak_tm) 1.30 in
  note "ARPANET topology at 1.30x peak traffic.@.";
  let series kind =
    let sim = Flow_sim.create g kind tm in
    List.map
      (fun s -> (s.Flow_sim.time_s, float_of_int s.Flow_sim.congested_links))
      (Flow_sim.run sim ~periods:60)
  in
  let dspf = series Metric.D_spf in
  let hnspf = series Metric.Hn_spf in
  print_string
    (Routing_stats.Ascii_plot.render ~height:12 ~x_label:"time (s)"
       ~y_label:"links offered > 90% of capacity"
       [ { Routing_stats.Ascii_plot.label = "D-SPF"; glyph = 'd'; points = dspf };
         { Routing_stats.Ascii_plot.label = "HN-SPF"; glyph = 'h';
           points = hnspf } ]);
  let mean pts =
    List.fold_left (fun acc (_, v) -> acc +. v) 0. pts
    /. float_of_int (List.length pts)
  in
  note
    ("paper (§3.3): \"the over-utilization of subnet links can lead to the@."
    ^^ " spread of congestion within the network\".  measured: D-SPF keeps@."
    ^^ " %.1f links hot on average (the hot set moves every period); HN-SPF@."
    ^^ " pins it at %.1f.@.")
    (mean dspf) (mean hnspf)

(* ------------------------------------------------------------------ *)
(* Flood latency: validating §3.2's synchrony assumption (ours).        *)

let floodlat () =
  section "floodlat — how fast updates actually flood (ours, from §3.2)";
  let g = Lazy.force arpanet in
  let tm = Lazy.force peak_tm in
  let t =
    Table.create
      [ ("metric", Table.Left); ("floods", Table.Right);
        ("mean ms", Table.Right); ("p-max ms", Table.Right);
        ("delivered kb/s", Table.Right) ]
  in
  List.iter
    (fun kind ->
      let config =
        { (Network.default_config kind) with
          Network.seed = 4;
          instant_flooding = false;
          record_series = false }
      in
      let net = Network.create ~config g tm in
      Network.run net ~duration_s:300.;
      let lat = Network.flood_latency_stats net in
      let i = Network.indicators net in
      Table.add_row t
        [ Metric.kind_name kind;
          string_of_int (Routing_stats.Welford.count lat);
          Printf.sprintf "%.0f" (1000. *. Routing_stats.Welford.mean lat);
          Printf.sprintf "%.0f" (1000. *. Routing_stats.Welford.max_value lat);
          Printf.sprintf "%.1f" (i.Measure.internode_traffic_bps /. 1000.) ])
    [ Metric.D_spf; Metric.Hn_spf ];
  print_string (Table.to_string t);
  note
    ("Updates modelled hop-by-hop as priority control packets (no instant@."
    ^^ " network-wide apply): per-node acceptance latency above.  The paper@."
    ^^ " leans on updates being generated at intervals of tens of seconds@."
    ^^ " while packet transit times are typically much less than a second@."
    ^^ " (\u{00a7}3.2) - measured means of a few hundred ms (satellite hops@."
    ^^ " dominate the tail) confirm the synchronized-recomputation model@."
    ^^ " is the right abstraction.@.")

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel).                                        *)

(* Run a bechamel test tree and return [(name, (ns, minor words, major
   words))] rows per run, sorted by name.  The allocation responders ride
   the same OLS regression as the clock, so every benchmark table and
   BENCH_*.json record carries the hot path's allocation rate next to its
   time — the number the zero-allocation steady-state work is graded on. *)
let run_benchmarks ~quota_s tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances =
    Toolkit.Instance.[ monotonic_clock; minor_allocated; major_allocated ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let estimates instance =
    let results = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> (name, est) :: acc
        | _ -> acc)
      results []
  in
  let times = estimates Toolkit.Instance.monotonic_clock in
  let minors = estimates Toolkit.Instance.minor_allocated in
  let majors = estimates Toolkit.Instance.major_allocated in
  let words tbl name = Option.value ~default:0. (List.assoc_opt name tbl) in
  List.sort compare
    (List.map
       (fun (name, ns) -> (name, (ns, words minors name, words majors name)))
       times)

let humanize ns =
  if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* Negative OLS estimates (noise around zero) print as a clean 0. *)
let humanize_words w =
  if w < 0.5 then "0" else Printf.sprintf "%.0f" w

let print_rows rows =
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("time per run", Table.Right);
        ("minor w/run", Table.Right); ("major w/run", Table.Right) ]
  in
  List.iter
    (fun (name, (ns, minor, major)) ->
      Table.add_row t
        [ name; humanize ns; humanize_words minor; humanize_words major ])
    rows;
  print_string (Table.to_string t)

let perf () =
  section "perf — micro-benchmarks of the implementation (bechamel)";
  let open Bechamel in
  let g = Lazy.force arpanet in
  let tm = Lazy.force peak_tm in
  let metric = Metric.create Metric.Hn_spf g in
  let root = Arpanet.representative_link g in
  let hnm = Hnm.create root in
  let dspf = Dspf.create root in
  let flow = Flow_sim.create g Metric.Hn_spf tm in
  (* One node's own weight table and tree, as a hop-by-hop DES node keeps
     them: each run flips the root link between costs 30 and 60 and
     repairs the tree in place. *)
  let view_weights =
    Routing_spf.Dijkstra.compute_weights g ~cost:(Metric.cost_fn metric)
  in
  let view_tree =
    Routing_spf.Dijkstra.compute_flat g ~weights:view_weights root.Link.src
  in
  let repair_scratch = Routing_spf.Spf_repair.scratch () in
  let flip = ref false in
  let flooders =
    Array.init (Graph.node_count g) (fun i ->
        Routing_flooding.Flooder.create g ~owner:(Node.of_int i))
  in
  let tests =
    Test.make_grouped ~name:"arpanet" ~fmt:"%s %s"
      [ Test.make ~name:"dijkstra (57 nodes)"
          (Staged.stage (fun () ->
               ignore
                 (Routing_spf.Dijkstra.compute g ~cost:(Metric.cost_fn metric)
                    root.Link.src)));
        Test.make ~name:"full tree + table (one node)"
          (Staged.stage (fun () ->
               ignore
                 (Routing_spf.Routing_table.of_tree
                    (Routing_spf.Dijkstra.compute g
                       ~cost:(Metric.cost_fn metric) root.Link.src))));
        Test.make ~name:"view repair + table (one node, one change)"
          (Staged.stage (fun () ->
               flip := not !flip;
               let c = if !flip then 60 else 30 in
               let k = Link.id_to_int root.Link.id in
               let old = view_weights.(k) in
               let w =
                 Routing_spf.Dijkstra.link_weight ~cost:(fun _ -> c)
                   root.Link.id
               in
               view_weights.(k) <- w;
               ignore
                 (Routing_spf.Spf_repair.repair repair_scratch g
                    ~tree:view_tree ~weights:view_weights
                    ~changes:[ (root.Link.id, old, w) ]);
               ignore (Routing_spf.Routing_table.of_tree view_tree)));
        Test.make ~name:"hnm period update"
          (Staged.stage (fun () ->
               ignore (Hnm.period_update hnm ~measured_delay_s:0.05)));
        Test.make ~name:"dspf period update"
          (Staged.stage (fun () ->
               ignore (Dspf.period_update dspf ~measured_delay_s:0.05)));
        Test.make ~name:"network flood (one update)"
          (Staged.stage (fun () ->
               let u =
                 Routing_flooding.Flooder.originate
                   flooders.(Node.to_int root.Link.src)
                   ~costs:[ (root.Link.id, 42) ]
               in
               ignore (Routing_flooding.Broadcast.flood g flooders u)));
        Test.make ~name:"flow sim routing period"
          (Staged.stage (fun () -> ignore (Flow_sim.step flow))) ]
  in
  print_rows (run_benchmarks ~quota_s:0.5 tests)

(* ------------------------------------------------------------------ *)
(* SPF engine benchmarks: full vs incremental vs parallel all-pairs.   *)
(* `perf` runs these at full quota and records BENCH_spf.json so the   *)
(* perf trajectory is tracked across PRs; `perf-quick` is the runtest  *)
(* smoke mode — tiny quota, no file written.                           *)

module Spf_engine = Routing_spf.Spf_engine
module Spf_tree = Routing_spf.Spf_tree
module Domain_pool = Routing_metric.Domain_pool

(* Each topology is (name, graph, wanted sources): [None] benches the
   all-pairs baselines too (feasible only when every tree fits in memory
   and a full sweep fits the quota); [Some k] restricts the engine to [k]
   evenly spread sources — how a large-network experiment would actually
   use it.  The 10^5-node tier is opt-in ([BENCH_SPF_100K=1]): its
   recompute rows cost seconds per iteration. *)
let spf_bench_topologies ~quick () =
  if quick then
    [ ("arpanet", Lazy.force arpanet, None);
      ( "mesh200",
        Generators.ring_chord (Rng.create 99) ~nodes:200 ~chords:120,
        None );
      ( "hier184",
        Generators.hierarchical ~cores:4 ~pops_per_core:5 ~access_per_pop:8
          (),
        None ) ]
  else
    [ ("arpanet", Lazy.force arpanet, None);
      ( "mesh200",
        Generators.ring_chord (Rng.create 99) ~nodes:200 ~chords:120,
        None );
      ( "hier1k",
        Generators.hierarchical ~cores:8 ~pops_per_core:11 ~access_per_pop:10
          (),
        None );
      ( "wax1k",
        Generators.waxman (Rng.create 42) ~nodes:1000 ~alpha:0.9 ~beta:0.05,
        None );
      ( "hier10k",
        Generators.hierarchical ~cores:16 ~pops_per_core:25
          ~access_per_pop:24 (),
        Some 128 ) ]
    @
    if Sys.getenv_opt "BENCH_SPF_100K" <> None then
      [ ( "hier100k",
          Generators.hierarchical ~cores:25 ~pops_per_core:40
            ~access_per_pop:99 (),
          Some 8 ) ]
    else []

(* One benchmark group per topology.  The baseline reproduces the
   pre-engine behavior: an independent full Dijkstra per source, costs
   re-evaluated per edge.  The engine rows measure a refresh after one or
   eight links' flooded costs changed — against both the dynamic-repair
   path and the per-source recompute fallback, so BENCH_spf.json carries
   the repair speedup directly — and after none did. *)
let spf_bench_tests ~pool (name, g, wanted_count) =
  let open Bechamel in
  let nl = Graph.link_count g in
  let costs = Array.init nl (fun i -> 1 + ((i * 37) mod 60)) in
  let cost lid = costs.(Link.id_to_int lid) in
  let n = Graph.node_count g in
  let wanted =
    match wanted_count with
    | None -> fun _ -> true
    | Some k ->
      let stride = max 1 (n / k) in
      fun node -> Node.to_int node mod stride = 0
  in
  let make_engine ?repair () =
    let e = Spf_engine.create ?repair g in
    Spf_engine.refresh ~wanted e ~cost;
    e
  in
  let engine_one = make_engine () in
  let engine_one_rc = make_engine ~repair:false () in
  let engine_multi = make_engine () in
  let engine_multi_rc = make_engine ~repair:false () in
  let engine_none = make_engine () in
  let probe = Link.id_of_int 0 in
  (* Each test owns its flip state: the first measured call must be a
     real change (the engine starts at base costs), and every later call
     alternates the delta back and forth so no call degenerates into the
     no-change fast path.  A shared flip would let another test's parity
     leak in and turn a row's first — sometimes only — sample into a
     no-op refresh, wrecking the estimate for the slow rows. *)
  let one_change engine =
    let flip = ref false in
    Staged.stage (fun () ->
        flip := not !flip;
        let base = costs.(Link.id_to_int probe) in
        let c = if !flip then base + 10 else base in
        Spf_engine.refresh ~wanted engine ~cost:(fun lid ->
            if Link.id_equal lid probe then c else cost lid))
  in
  let probes = Array.init 8 (fun k -> k * nl / 8) in
  let multi_change engine =
    let flip = ref false in
    Staged.stage (fun () ->
        flip := not !flip;
        let delta = if !flip then 10 else 0 in
        Spf_engine.refresh ~wanted engine ~cost:(fun lid ->
            let i = Link.id_to_int lid in
            if Array.exists (fun p -> p = i) probes then costs.(i) + delta
            else costs.(i)))
  in
  let seed_all_pairs () =
    Array.init n (fun i -> Routing_spf.Dijkstra.compute g ~cost (Node.of_int i))
  in
  let all_pairs_rows =
    [ Test.make ~name:"all-pairs full (per-source baseline)"
        (Staged.stage (fun () -> ignore (seed_all_pairs ())));
      Test.make ~name:"all-pairs shared weights"
        (Staged.stage (fun () ->
             ignore (Routing_spf.Dijkstra.all_pairs g ~cost)));
      Test.make
        ~name:
          (Printf.sprintf "all-pairs parallel (%d domains)"
             (Domain_pool.size pool))
        (Staged.stage (fun () ->
             ignore (Routing_spf.Dijkstra.all_pairs ~pool g ~cost))) ]
  in
  let engine_rows =
    [ Test.make ~name:"engine refresh (one link change)"
        (one_change engine_one);
      Test.make ~name:"engine refresh (one link change, recompute)"
        (one_change engine_one_rc);
      Test.make ~name:"engine refresh (8 link changes)"
        (multi_change engine_multi);
      Test.make ~name:"engine refresh (8 link changes, recompute)"
        (multi_change engine_multi_rc);
      Test.make ~name:"engine refresh (no change)"
        (Staged.stage (fun () -> Spf_engine.refresh ~wanted engine_none ~cost))
    ]
  in
  Test.make_grouped ~name ~fmt:"%s %s"
    (match wanted_count with
    | None -> all_pairs_rows @ engine_rows
    | Some _ -> engine_rows)

module Obs_metrics = Routing_obs.Metrics
module Obs_json = Routing_obs.Json
module Obs_tracer = Routing_obs.Tracer

(* Run metadata the harness passes via the environment ([BENCH_GIT_REV],
   [BENCH_DATE] — an ISO date); "unknown" when run by hand. *)
let bench_env key =
  match Sys.getenv_opt key with Some v when v <> "" -> v | _ -> "unknown"

let write_bench_json path ~domains ~topologies rows =
  let reg = Obs_metrics.create () in
  Obs_metrics.set_meta reg "benchmark" "all-pairs SPF refresh";
  Obs_metrics.set_meta reg "units"
    "ns / minor words / major words per run (bechamel OLS estimates)";
  Obs_metrics.set_meta reg "domains" (string_of_int domains);
  Obs_metrics.set_meta reg "git_rev" (bench_env "BENCH_GIT_REV");
  Obs_metrics.set_meta reg "date" (bench_env "BENCH_DATE");
  List.iter
    (fun (name, (ns, minor, major)) ->
      let gauge metric v =
        Obs_metrics.set
          (Obs_metrics.gauge reg ~labels:[ ("case", name) ] metric)
          v
      in
      gauge "ns_per_run" ns;
      gauge "minor_words_per_run" minor;
      gauge "major_words_per_run" major)
    rows;
  let speedup_of topology =
    let find suffix =
      Option.map
        (fun (ns, _, _) -> ns)
        (List.assoc_opt (topology ^ " " ^ suffix) rows)
    in
    let ratio num den =
      match (num, den) with
      | Some n, Some d when d > 0. -> Obs_json.Float (n /. d)
      | _ -> Obs_json.Null
    in
    let baseline = find "all-pairs full (per-source baseline)" in
    Obs_json.Obj
      [ ("topology", Obs_json.String topology);
        ( "incremental_vs_full",
          ratio baseline (find "engine refresh (one link change)") );
        ( "repair_vs_recompute_1change",
          ratio
            (find "engine refresh (one link change, recompute)")
            (find "engine refresh (one link change)") );
        ( "repair_vs_recompute_8changes",
          ratio
            (find "engine refresh (8 link changes, recompute)")
            (find "engine refresh (8 link changes)") );
        ( "shared_weights_vs_full",
          ratio baseline (find "all-pairs shared weights") );
        ( "parallel_vs_full",
          ratio baseline
            (find (Printf.sprintf "all-pairs parallel (%d domains)" domains))
        ) ]
  in
  Obs_metrics.write_file reg path
    ~extra:
      [ ( "speedups_vs_full_recompute",
          Obs_json.List (List.map speedup_of topologies) ) ]

(* Crash-and-identity gate, run before any timing: drive the repair
   engine through the delta shapes the rows below measure (one-link
   increase and decrease, an 8-link batch, a link outage and its
   recovery) on a generated hierarchy, and insist every repaired tree is
   bit-identical to a from-scratch [Dijkstra.compute].  A benchmark that
   times a wrong answer is worse than no benchmark. *)
let spf_identity_gate () =
  let g =
    Generators.hierarchical ~cores:4 ~pops_per_core:5 ~access_per_pop:8 ()
  in
  let nl = Graph.link_count g in
  let n = Graph.node_count g in
  let costs = Array.init nl (fun i -> 1 + ((i * 37) mod 60)) in
  let up = Array.make nl true in
  let cost lid = costs.(Link.id_to_int lid) in
  let enabled lid = up.(Link.id_to_int lid) in
  let engine = Spf_engine.create g in
  let check step =
    Spf_engine.refresh ~enabled engine ~cost;
    for i = 0 to n - 1 do
      let src = Node.of_int i in
      let fresh = Routing_spf.Dijkstra.compute ~enabled g ~cost src in
      if not (Spf_tree.equal (Spf_engine.tree engine src) fresh) then
        failwith
          (Printf.sprintf
             "spf identity gate: repaired tree for source %d diverges \
              after %s"
             i step)
    done
  in
  check "initial refresh";
  costs.(0) <- costs.(0) + 10;
  check "one link increase";
  costs.(0) <- costs.(0) - 6;
  check "one link decrease";
  for k = 0 to 7 do
    costs.(k * nl / 8 mod nl) <- 1 + (k * 13 mod 60)
  done;
  check "8 link batch";
  up.(5) <- false;
  check "link disable";
  up.(5) <- true;
  check "link enable";
  note "identity gate: repaired trees match from-scratch Dijkstra@."

let perf_spf ~quick () =
  section
    (if quick then
       "perf-quick — SPF engine smoke benchmarks (tiny quota, no file)"
     else "perf-spf — full vs repair vs recompute vs parallel all-pairs SPF");
  spf_identity_gate ();
  let pool = Domain_pool.create (max 2 (Domain_pool.recommended_size ())) in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let quota_s = if quick then 0.02 else 0.5 in
  let topologies = spf_bench_topologies ~quick () in
  let rows =
    List.concat_map
      (fun topo -> run_benchmarks ~quota_s (spf_bench_tests ~pool topo))
      topologies
  in
  print_rows rows;
  if not quick then begin
    write_bench_json "BENCH_spf.json" ~domains:(Domain_pool.size pool)
      ~topologies:(List.map (fun (t, _, _) -> t) topologies)
      rows;
    note "wrote BENCH_spf.json@."
  end

(* ------------------------------------------------------------------ *)
(* Flow-simulator hot path + sweep throughput.  `sim` records          *)
(* BENCH_sim.json; `sim-quick` is the runtest/CI smoke mode — tiny     *)
(* quota and grid, no file written, plus a round-trip check that the   *)
(* would-be record survives the routing_obs JSON codec.                *)

module Load_assign = Routing_sim.Load_assign
module Sweep_spec = Routing_sweep.Sweep_spec
module Sweep_engine = Routing_sweep.Sweep_engine

let mesh200 () = Generators.ring_chord (Rng.create 99) ~nodes:200 ~chords:120

let sim_bench_rows ~quota_s =
  let open Bechamel in
  let g = mesh200 () in
  let tm = Traffic_matrix.gravity (Rng.create 3) ~nodes:200 ~total_bps:2e6 in
  let flow = Flow_sim.create g Metric.Hn_spf tm in
  (* Same simulation with a live flight recorder: the pair of rows is the
     measured cost of tracing (the "(traced)" / plain ratio lands in
     BENCH_sim.json as [tracer_on_vs_off]; the plain row's cost with the
     null tracer is the disabled-tracing overhead, a single branch). *)
  let traced_flow =
    Flow_sim.create
      ~tracer:(Obs_tracer.create ~clock:Obs_tracer.Untimed ())
      g Metric.Hn_spf tm
  in
  (* Assignment rows isolate the per-period load spread: trees are fixed
     (one refresh up front), so aggregated-vs-baseline is exactly the
     O(V+E) sweep against the historical per-flow tree climb. *)
  let nl = Graph.link_count g in
  let costs = Array.init nl (fun i -> 1 + ((i * 37) mod 60)) in
  let engine = Spf_engine.create g in
  Spf_engine.refresh engine ~cost:(fun lid -> costs.(Link.id_to_int lid));
  let tree_for = Spf_engine.tree engine in
  let flows = Routing_sim.Flow_store.of_matrix tm in
  let nf = Routing_sim.Flow_store.length flows in
  let assignment = Load_assign.create g in
  let baseline = Load_assign.create g in
  let sending = Array.sub (Routing_sim.Flow_store.demand_col flows) 0 nf in
  let offered = Array.make nl 0. in
  let first_hop = Array.make nf (-2) in
  let tests =
    Test.make_grouped ~name:"mesh200" ~fmt:"%s %s"
      [ Test.make ~name:"flow sim routing period"
          (Staged.stage (fun () -> ignore (Flow_sim.step flow)));
        Test.make ~name:"flow sim routing period (traced)"
          (Staged.stage (fun () -> ignore (Flow_sim.step traced_flow)));
        Test.make ~name:"assignment (aggregated)"
          (Staged.stage (fun () ->
               Array.fill offered 0 nl 0.;
               Load_assign.assign assignment ~flows ~tree_for ~sending
                 ~offered ~first_hop));
        Test.make ~name:"assignment (per-flow baseline)"
          (Staged.stage (fun () ->
               Array.fill offered 0 nl 0.;
               Load_assign.assign_baseline baseline ~flows ~tree_for ~sending
                 ~offered ~first_hop)) ]
  in
  run_benchmarks ~quota_s tests

(* Million-flow fast path: >= 1e6 heavy-tailed host-level flows through
   one period's load spread.  The steady-state sequential pass must
   allocate zero minor words (the runtime gate behind the A0xx static
   analysis), and the parallel pass must reproduce the sequential output
   bit for bit before it is allowed on the scoreboard. *)
let million_flow_rows ~quick () =
  let g = mesh200 () in
  let nl = Graph.link_count g in
  let costs = Array.init nl (fun i -> 1 + ((i * 37) mod 60)) in
  let engine = Spf_engine.create g in
  Spf_engine.refresh engine ~cost:(fun lid -> costs.(Link.id_to_int lid));
  let tree_for = Spf_engine.tree engine in
  let nf = 1_000_000 in
  let flows =
    Routing_sim.Flow_store.heavy_tailed (Rng.create 7) ~nodes:200 ~flows:nf
      ~total_bps:2e9
      ~size:(Routing_sim.Flow_store.Pareto { alpha = 1.2 })
  in
  let t = Load_assign.create g in
  let sending = Array.sub (Routing_sim.Flow_store.demand_col flows) 0 nf in
  let offered = Array.make nl 0. in
  let first_hop = Array.make nf (-2) in
  let assign_once () =
    Array.fill offered 0 nl 0.;
    Load_assign.assign t ~flows ~tree_for ~sending ~offered ~first_hop
  in
  (* Warm the scratch (grouping cache, per-destination buffers); after
     that the pass must be exactly allocation-free. *)
  assign_once ();
  assign_once ();
  let before = Gc.minor_words () in
  assign_once ();
  let dminor = Gc.minor_words () -. before in
  if dminor <> 0. then
    failwith
      (Printf.sprintf
         "million-flow steady-state assignment allocated %.0f minor words"
         dminor);
  let reps = if quick then 2 else 8 in
  let time_reps f =
    let s0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let s1 = Gc.quick_stat () in
    let per x = x /. float_of_int reps in
    ( per dt,
      per (s1.Gc.minor_words -. s0.Gc.minor_words),
      per (s1.Gc.major_words -. s0.Gc.major_words) )
  in
  let seq_s, seq_minor, seq_major = time_reps assign_once in
  (* Parallel pass: first prove it reproduces the sequential bytes (the
     stream replay preserves the float-add order), then time it.  On a
     one-core pool the dispatch falls back to sequential, which is the
     honest number for that box. *)
  let offered_seq = Array.copy offered in
  let fh_seq = Array.copy first_hop in
  let pool = Domain_pool.create (min 4 (Domain.recommended_domain_count ())) in
  let par_s, par_minor, par_major =
    Fun.protect
      ~finally:(fun () -> Domain_pool.shutdown pool)
      (fun () ->
        let assign_par () =
          Array.fill offered 0 nl 0.;
          Load_assign.assign ~pool t ~flows ~tree_for ~sending ~offered
            ~first_hop
        in
        assign_par ();
        Array.iteri
          (fun l o ->
            if Int64.bits_of_float o <> Int64.bits_of_float offered_seq.(l)
            then
              failwith
                (Printf.sprintf
                   "parallel million-flow assignment differs on link %d" l))
          offered;
        Array.iteri
          (fun fi h ->
            if h <> fh_seq.(fi) then
              failwith
                (Printf.sprintf
                   "parallel million-flow first hop differs on flow %d" fi))
          first_hop;
        time_reps assign_par)
  in
  let fps s = float_of_int nf /. Float.max s 1e-12 in
  note
    "million-flow assignment: %d flows, %.2f Mflows/s sequential (0 minor \
     words steady state), %.2f Mflows/s parallel@."
    nf
    (fps seq_s /. 1e6)
    (fps par_s /. 1e6);
  let rows =
    [ ( "mesh200 million-flow assignment (sequential)",
        (seq_s *. 1e9, seq_minor, seq_major) );
      ( "mesh200 million-flow assignment (parallel)",
        (par_s *. 1e9, par_minor, par_major) ) ]
  in
  (rows, (nf, fps seq_s, fps par_s))

let sweep_spec_of_points ~points ~periods =
  { Sweep_spec.scenarios = [ Sweep_spec.Builtin "arpanet" ];
    metrics = [ Metric.D_spf; Metric.Hn_spf ];
    scales = [ 0.7; 1.0 ];
    seeds = List.init (max 1 (points / 4)) (fun i -> i + 1);
    periods;
    warmup = min 2 (periods - 1);
    critical_load = None }

(* The shipped paper grid is the headline sweep workload; fall back to
   the synthetic grid when the spec is not where the repo keeps it
   (bench run from an odd cwd). *)
let paper_sweep_spec ~points ~periods =
  match Sweep_spec.load "scenarios/paper_sweep.json" with
  | Ok spec -> ("scenarios/paper_sweep.json", spec)
  | Error _ -> ("synthetic arpanet grid", sweep_spec_of_points ~points ~periods)

(* A critical-load ramp over the ARPANET builtin: drive offered load
   from half to 2.5x nominal and let the engine locate the phase-change
   knee per metric.  `sim-quick` runs the tiny version as a CI smoke
   assertion (the detector must return a finite knee on the ramp); the
   full run records the knees in BENCH_sim.json. *)
let ramp_spec_of ~steps ~seeds ~periods =
  let lo = 0.5 and hi = 2.5 in
  { Sweep_spec.scenarios = [ Sweep_spec.Builtin "arpanet" ];
    metrics = [ Metric.D_spf; Metric.Hn_spf ];
    scales =
      List.init steps (fun i ->
          lo +. ((hi -. lo) *. float_of_int i /. float_of_int (steps - 1)));
    seeds;
    periods;
    warmup = min 2 (periods - 1);
    critical_load =
      Some { Sweep_spec.ramp_from = lo; ramp_to = hi; ramp_steps = steps } }

let critical_load_knees ~quick =
  let spec =
    if quick then ramp_spec_of ~steps:4 ~seeds:[ 1 ] ~periods:3
    else ramp_spec_of ~steps:6 ~seeds:[ 1; 2 ] ~periods:12
  in
  let report = Sweep_engine.run ~domains:1 spec in
  let knees = report.Sweep_engine.knees in
  if knees = [] then failwith "critical-load ramp located no knee";
  List.iter
    (fun (k : Sweep_engine.knee) ->
      let on_ramp x = Float.is_finite x && x >= 0.5 && x <= 2.5 in
      if not (on_ramp k.Sweep_engine.k_scale_delay
              && on_ramp k.Sweep_engine.k_scale_throughput) then
        failwith
          (Printf.sprintf "critical-load knee off the ramp for %s/%s"
             k.Sweep_engine.k_scenario
             (Metric.kind_name k.Sweep_engine.k_metric));
      note
        "critical load %s/%s: delay knee at x%g (%.1f ms rtt), throughput \
         knee at x%g@."
        k.Sweep_engine.k_scenario
        (Metric.kind_name k.Sweep_engine.k_metric)
        k.Sweep_engine.k_scale_delay k.Sweep_engine.k_delay_ms
        k.Sweep_engine.k_scale_throughput)
    knees;
  knees

let knee_json (k : Sweep_engine.knee) =
  Obs_json.Obj
    [ ("scenario", Obs_json.String k.Sweep_engine.k_scenario);
      ("metric", Obs_json.String (Metric.kind_name k.Sweep_engine.k_metric));
      ("scale_delay_knee", Obs_json.Float k.Sweep_engine.k_scale_delay);
      ("scale_throughput_knee", Obs_json.Float k.Sweep_engine.k_scale_throughput);
      ("round_trip_delay_ms_at_knee", Obs_json.Float k.Sweep_engine.k_delay_ms);
      ( "internode_traffic_bps_at_knee",
        Obs_json.Float k.Sweep_engine.k_throughput_bps ) ]

(* Wall-clock sweep throughput across pool sizes, plus the byte-identity
   check the sweep engine's determinism contract rests on.  The spec is
   prepared once (parse-once is part of what's being measured — every
   run shares the same immutable spec, as the CLI does). *)
let sweep_rows ~spec ~domain_counts =
  let prep = Sweep_engine.prepare spec in
  let reports =
    List.map
      (fun domains ->
        let t0 = Unix.gettimeofday () in
        let report = Sweep_engine.run_prepared ~domains prep in
        let dt = Unix.gettimeofday () -. t0 in
        let n = Array.length report.Sweep_engine.outcomes in
        (domains, float_of_int n /. Float.max dt 1e-9,
         Obs_json.to_string report.Sweep_engine.json))
      domain_counts
  in
  (match reports with
   | (_, _, first) :: rest ->
     List.iter
       (fun (domains, _, json) ->
         if not (String.equal first json) then
           failwith
             (Printf.sprintf
                "sweep report differs between %d and %d domains"
                (match reports with (d, _, _) :: _ -> d | [] -> 0)
                domains))
       rest
   | [] -> ());
  List.map (fun (domains, pps, _) -> (domains, pps)) reports

let write_sim_json path ~cores ~sweep_src ~rows ~sweep ~million ~knees =
  let reg = Obs_metrics.create () in
  Obs_metrics.set_meta reg "benchmark" "flow-sim hot path + sweep throughput";
  Obs_metrics.set_meta reg "units"
    "ns / minor words / major words per run (bechamel OLS estimates); sweep \
     rows are grid points per second";
  (* This box's physical parallelism, recorded so the sweep-throughput
     rows read honestly: with one core, more domains cannot beat one. *)
  Obs_metrics.set_meta reg "cores" (string_of_int cores);
  Obs_metrics.set_meta reg "sweep_workload" sweep_src;
  Obs_metrics.set_meta reg "git_rev" (bench_env "BENCH_GIT_REV");
  Obs_metrics.set_meta reg "date" (bench_env "BENCH_DATE");
  List.iter
    (fun (name, (ns, minor, major)) ->
      let gauge metric v =
        Obs_metrics.set
          (Obs_metrics.gauge reg ~labels:[ ("case", name) ] metric)
          v
      in
      gauge "ns_per_run" ns;
      gauge "minor_words_per_run" minor;
      gauge "major_words_per_run" major)
    rows;
  List.iter
    (fun (domains, pps) ->
      Obs_metrics.set
        (Obs_metrics.gauge reg
           ~labels:[ ("domains", string_of_int domains) ]
           "sweep_points_per_s")
        pps)
    sweep;
  let ratio num den =
    match (num, den) with
    | Some n, Some d when d > 0. -> Obs_json.Float (n /. d)
    | _ -> Obs_json.Null
  in
  let time name =
    Option.map (fun (ns, _, _) -> ns) (List.assoc_opt name rows)
  in
  let json =
    Obs_metrics.to_json reg
      ~extra:
        [ ( "speedups",
            Obs_json.Obj
              [ ( "assignment_aggregated_vs_baseline",
                  ratio
                    (time "mesh200 assignment (per-flow baseline)")
                    (time "mesh200 assignment (aggregated)") );
                ( "tracer_on_vs_off",
                  ratio
                    (time "mesh200 flow sim routing period (traced)")
                    (time "mesh200 flow sim routing period") );
                ( "sweep_4_domains_vs_1",
                  ratio
                    (List.assoc_opt 4 sweep)
                    (List.assoc_opt 1 sweep) );
                (* Speedup per domain: pps(4) / (4 × pps(1)).  1.0 is
                   perfect scaling; on a single-core host (see the
                   "cores" meta) the theoretical best is 0.25. *)
                ( "sweep_parallel_efficiency",
                  ratio
                    (List.assoc_opt 4 sweep)
                    (Option.map (fun pps -> 4. *. pps)
                       (List.assoc_opt 1 sweep)) ) ] );
          (let nf, seq_fps, par_fps = million in
           ( "million_flow",
             Obs_json.Obj
               [ ("flows_per_period", Obs_json.Int nf);
                 ("flows_per_s_sequential", Obs_json.Float seq_fps);
                 ("flows_per_s_parallel", Obs_json.Float par_fps);
                 ("steady_state_minor_words", Obs_json.Int 0) ] ));
          ("critical_load", Obs_json.List (List.map knee_json knees)) ]
  in
  (* The record must survive its own codec — CI's schema check. *)
  (match Obs_json.of_string (Obs_json.to_string json) with
   | Ok round when Obs_json.equal round json -> ()
   | Ok _ -> failwith "BENCH_sim.json does not round-trip identically"
   | Error e -> failwith ("BENCH_sim.json does not re-parse: " ^ e));
  (match path with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_string oc (Obs_json.to_string_pretty json);
         output_char oc '\n'))

let bench_sim ~quick () =
  section
    (if quick then
       "sim-quick — flow-sim smoke benchmarks (tiny quota and grid, no file)"
     else "sim — flow-sim hot path and sweep throughput");
  let rows = sim_bench_rows ~quota_s:(if quick then 0.02 else 0.5) in
  let mf_rows, million = million_flow_rows ~quick () in
  let rows = rows @ mf_rows in
  print_rows rows;
  let sweep_src, sweep =
    if quick then
      ( "synthetic arpanet grid",
        sweep_rows ~spec:(sweep_spec_of_points ~points:2 ~periods:3)
          ~domain_counts:[ 1; 2 ] )
    else
      let src, spec = paper_sweep_spec ~points:16 ~periods:12 in
      (src, sweep_rows ~spec ~domain_counts:[ 1; 2; 4; 8 ])
  in
  List.iter
    (fun (domains, pps) ->
      note "sweep throughput: %.2f points/s at %d domain%s (%s)@." pps domains
        (if domains = 1 then "" else "s")
        sweep_src)
    sweep;
  note "sweep reports byte-identical across domain counts@.";
  let knees = critical_load_knees ~quick in
  let cores = Domain.recommended_domain_count () in
  let path = if quick then None else Some "BENCH_sim.json" in
  write_sim_json path ~cores ~sweep_src ~rows ~sweep ~million ~knees;
  if not quick then note "wrote BENCH_sim.json@."

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("fig1", fig1); ("fig4", fig4); ("fig5", fig5); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("table1", table1); ("fig13", fig13);
    ("ablate", ablate); ("gen3", gen3); ("scaling", scaling);
    ("multipath", multipath); ("spread", spread); ("gain", gain);
    ("milnet", milnet); ("modern", modern); ("floodlat", floodlat) ]

(* Heavyweight targets excluded from the default sweep. *)
let extra_experiments = [ ("table1p", table1p) ]

let () =
  let requested =
    match Array.to_list Sys.argv with _ :: args -> args | [] -> []
  in
  match requested with
  | [] ->
    List.iter (fun (_, run) -> run ()) experiments;
    Format.printf
      "@.All experiments done.  Run with 'perf' for micro-benchmarks, or@.\
       name specific experiments: %s@."
      (String.concat " " (List.map fst experiments))
  | names ->
    List.iter
      (fun name ->
        if String.equal name "perf" then begin
          perf ();
          perf_spf ~quick:false ()
        end
        else if String.equal name "perf-quick" then perf_spf ~quick:true ()
        else if String.equal name "perf-spf" then perf_spf ~quick:false ()
        else if String.equal name "sim" then bench_sim ~quick:false ()
        else if String.equal name "sim-quick" then bench_sim ~quick:true ()
        else
          match List.assoc_opt name (experiments @ extra_experiments) with
          | Some run -> run ()
          | None ->
            Format.printf
              "unknown experiment %S (have: %s, table1p, perf, perf-quick, \
               perf-spf, sim, sim-quick)@."
              name
              (String.concat " " (List.map fst experiments)))
      names
