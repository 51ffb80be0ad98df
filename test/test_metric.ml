(* Unit and property tests for routing_metric — the paper's contribution.
   Many cases check numbers the paper states outright (§3.2, §4.2-4.4). *)

open Routing_topology
module Units = Routing_metric.Units
module Queueing = Routing_metric.Queueing
module Measurement = Routing_metric.Measurement
module Hnm_params = Routing_metric.Hnm_params
module Hnm = Routing_metric.Hnm
module Dspf = Routing_metric.Dspf
module Legacy = Routing_metric.Legacy
module Significance = Routing_metric.Significance
module Metric = Routing_metric.Metric
module Rng = Routing_stats.Rng

(* A little test bench of one link per interesting line type. *)
let bench () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "B" in
  let _ = Builder.trunk b Line_type.S56 "A" "C" in
  let _ = Builder.trunk b Line_type.T9_6 ~propagation_s:0.002 "B" "C" in
  let _ = Builder.trunk b Line_type.S9_6 "B" "D" in
  let _ = Builder.trunk b Line_type.T448 ~propagation_s:0.002 "C" "D" in
  Builder.build b

let link g i = Graph.link g (Link.id_of_int i)

let t56 g = link g 0

let s56 g = link g 2

let t96 g = link g 4

(* --- Units --- *)

let test_units_roundtrip () =
  Alcotest.(check int) "10 ms is one unit" 1 (Units.of_delay 0.010);
  Alcotest.(check int) "clamped high" Units.max_cost (Units.of_delay 100.);
  Alcotest.(check int) "clamped low" 1 (Units.of_delay 0.);
  Alcotest.(check (float 1e-9)) "hop in hops" 1. (Units.hops_of_cost Units.hop);
  Alcotest.(check int) "hops roundtrip" Units.hop (Units.cost_of_hops 1.);
  Alcotest.(check int) "max cost is 254" 254 Units.max_cost;
  Alcotest.(check int) "hop is 30 units" 30 Units.hop

(* --- Queueing (M/M/1 and M/M/1/K) --- *)

let test_mm1_service_times () =
  Alcotest.(check (float 1e-9)) "56k service" (600. /. 56_000.)
    (Queueing.service_time_s Line_type.T56);
  Alcotest.(check (float 1e-9)) "9.6k service" 0.0625
    (Queueing.service_time_s Line_type.T9_6)

let test_mm1_roundtrip () =
  List.iter
    (fun rho ->
      let w = Queueing.sojourn_s Line_type.T56 ~utilization:rho in
      Alcotest.(check (float 1e-6)) "delay->util inverts util->delay" rho
        (Queueing.utilization_of_sojourn Line_type.T56 ~sojourn_s:w))
    [ 0.; 0.25; 0.5; 0.75; 0.9; 0.99 ]

let test_mm1_clamps () =
  Alcotest.(check (float 1e-9)) "negative clamps to idle"
    (Queueing.sojourn_s Line_type.T56 ~utilization:0.)
    (Queueing.sojourn_s Line_type.T56 ~utilization:(-3.));
  Alcotest.(check bool) "above max clamps" true
    (Queueing.sojourn_s Line_type.T56 ~utilization:5.
    = Queueing.sojourn_s Line_type.T56 ~utilization:0.99)

let test_mm1_delay_includes_propagation () =
  let g = bench () in
  let sat = s56 g in
  Alcotest.(check bool) "satellite delay dominated by propagation" true
    (Queueing.delay_s sat ~utilization:0. > 0.25)

let test_mm1k_blocking_range () =
  List.iter
    (fun rho ->
      let p = Queueing.mm1k_blocking ~utilization:rho in
      Alcotest.(check bool)
        (Printf.sprintf "P in [0,1) at rho=%.2f" rho)
        true
        (p >= 0. && p < 1.))
    [ 0.; 0.1; 0.5; 0.9; 0.999; 1.0; 1.001; 1.5; 3.; 50. ]

let test_mm1k_blocking_asymptotics () =
  Alcotest.(check bool) "negligible when idle" true
    (Queueing.mm1k_blocking ~utilization:0.3 < 1e-15);
  Alcotest.(check (float 1e-3)) "heavy overload sheds the excess" (1. -. (1. /. 3.))
    (Queueing.mm1k_blocking ~utilization:3.);
  Alcotest.(check (float 1e-9)) "rho=1 exact value"
    (1. /. float_of_int (Queueing.buffer_capacity + 1))
    (Queueing.mm1k_blocking ~utilization:1.)

let test_mm1k_sojourn_bounded () =
  let s = Queueing.service_time_s Line_type.T56 in
  let bound = float_of_int (Queueing.buffer_capacity + 1) *. s in
  List.iter
    (fun rho ->
      let w = Queueing.mm1k_sojourn_s Line_type.T56 ~utilization:rho in
      Alcotest.(check bool)
        (Printf.sprintf "bounded at rho=%.2f" rho)
        true
        (w >= s -. 1e-12 && w <= bound +. 1e-9))
    [ 0.; 0.5; 0.9; 1.0; 1.5; 10.; 100. ]

let test_mm1k_matches_mm1_when_light () =
  List.iter
    (fun rho ->
      let inf = Queueing.sojourn_s Line_type.T56 ~utilization:rho in
      let fin = Queueing.mm1k_sojourn_s Line_type.T56 ~utilization:rho in
      Alcotest.(check bool) "close at light load" true
        (Float.abs (inf -. fin) /. inf < 0.01))
    [ 0.1; 0.3; 0.5 ]

let prop_mm1k_blocking_monotone =
  QCheck2.Test.make ~name:"blocking is monotone in offered load" ~count:200
    QCheck2.Gen.(pair (float_range 0. 5.) (float_range 0. 5.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Queueing.mm1k_blocking ~utilization:lo
      <= Queueing.mm1k_blocking ~utilization:hi +. 1e-9)

let test_md1_half_the_queueing () =
  List.iter
    (fun rho ->
      let s = Queueing.service_time_s Line_type.T56 in
      let mm1_queue = Queueing.sojourn_s Line_type.T56 ~utilization:rho -. s in
      let md1_queue = Queueing.md1_sojourn_s Line_type.T56 ~utilization:rho -. s in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "P-K at rho=%.2f" rho)
        (mm1_queue /. 2.) md1_queue)
    [ 0.1; 0.5; 0.9 ]

(* Robustness: the qualitative HN-SPF story survives swapping the queueing
   model.  Under M/D/1-measured delays the inferred utilization is lower,
   but the metric still rises monotonically to its ceiling. *)
let test_hnm_robust_to_queueing_model () =
  let g = bench () in
  let h = Hnm.create (t56 g) in
  let cost_at u =
    let d = Queueing.md1_sojourn_s Line_type.T56 ~utilization:u
            +. (t56 g).Link.propagation_s in
    Hnm.period_update h ~measured_delay_s:d
  in
  let costs = List.map cost_at [ 0.3; 0.6; 0.8; 0.95; 0.99; 0.99; 0.99 ] in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone under M/D/1" true (nondecreasing costs);
  Alcotest.(check bool) "still approaches the ceiling" true
    (List.nth costs 6 > 70)

(* The paper's §3.2 anchors: a saturated 9.6 kb/s line looks ~127x worse
   than an idle 56 kb/s line under the delay metric; within a 56k-only
   network the ratio is ~20x. *)
let test_dspf_dynamic_range () =
  let g = bench () in
  let idle56 = Dspf.cost_of_utilization (t56 g) ~utilization:0. in
  let full96 =
    Units.of_delay (Queueing.mm1k_delay_s (t96 g) ~utilization:1.5)
  in
  let full56 =
    Units.of_delay (Queueing.mm1k_delay_s (t56 g) ~utilization:1.5)
  in
  Alcotest.(check int) "idle 56k reports its bias" 2 idle56;
  let ratio96 = float_of_int full96 /. float_of_int idle56 in
  Alcotest.(check bool)
    (Printf.sprintf "9.6 saturated ~127x (got %.0fx)" ratio96)
    true
    (ratio96 > 100. && ratio96 <= 127.5);
  let ratio56 = float_of_int full56 /. float_of_int idle56 in
  Alcotest.(check bool)
    (Printf.sprintf "56k saturated ~20x (got %.0fx)" ratio56)
    true
    (ratio56 > 14. && ratio56 < 30.)

(* --- Measurement --- *)

let test_measurement_averages () =
  let g = bench () in
  let m = Measurement.create (t56 g) in
  Measurement.record_packet m ~delay_s:0.010;
  Measurement.record_packet m ~delay_s:0.030;
  Alcotest.(check int) "count" 2 (Measurement.packet_count m);
  Alcotest.(check (float 1e-9)) "peek" 0.020 (Measurement.peek_average m);
  Alcotest.(check (float 1e-9)) "finish" 0.020 (Measurement.finish_period m);
  Alcotest.(check int) "reset" 0 (Measurement.packet_count m)

let test_measurement_idle_not_zero () =
  let g = bench () in
  let m = Measurement.create (t56 g) in
  let idle = Measurement.finish_period m in
  Alcotest.(check bool) "idle window reports intrinsic delay" true (idle > 0.);
  Alcotest.(check (float 1e-9)) "transmission + propagation"
    ((600. /. 56_000.) +. 0.002)
    idle

(* --- HNM parameters (§4.2-4.4 constraints) --- *)

let test_params_56k_anchors () =
  let p = Hnm_params.for_line_type Line_type.T56 in
  Alcotest.(check int) "min 30" 30 p.Hnm_params.base_min;
  Alcotest.(check int) "max 90" 90 p.Hnm_params.max_cost;
  Alcotest.(check int) "max up a little more than half hop" 16 p.Hnm_params.max_up;
  Alcotest.(check int) "max down one less" 15 p.Hnm_params.max_down;
  Alcotest.(check int) "threshold a little under half hop" 14
    p.Hnm_params.min_change

let test_params_all_line_types () =
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "%s max = 3 x min" (Line_type.name p.Hnm_params.line_type))
        (3 * p.Hnm_params.base_min)
        p.Hnm_params.max_cost;
      Alcotest.(check int) "down = up - 1" (p.Hnm_params.max_up - 1)
        p.Hnm_params.max_down;
      (* Flat until 50%: raw(0.5) = base_min; raw(1.0) = max. *)
      Alcotest.(check (float 1e-9)) "raw at 50%"
        (float_of_int p.Hnm_params.base_min)
        (Hnm_params.raw_cost p ~utilization:0.5);
      Alcotest.(check (float 1e-9)) "raw at 100%"
        (float_of_int p.Hnm_params.max_cost)
        (Hnm_params.raw_cost p ~utilization:1.0))
    Hnm_params.all

let test_params_9_6_vs_56 () =
  let g = bench () in
  (* Saturated 9.6 ~= 7x idle 56 under HN-SPF (§4.4). *)
  let full96 = Hnm.cost_of_utilization (t96 g) ~utilization:1. in
  let idle56 = Hnm.cost_of_utilization (t56 g) ~utilization:0. in
  Alcotest.(check int) "saturated 9.6 is 7x idle 56" 7 (full96 / idle56);
  (* Idle 56 satellite more favorable than idle 9.6 (§4.4). *)
  let idle_s56 = Hnm.cost_of_utilization (s56 g) ~utilization:0. in
  let idle96 = Hnm.cost_of_utilization (t96 g) ~utilization:0. in
  Alcotest.(check bool) "idle 56S cheaper than idle 9.6T" true (idle_s56 < idle96)

let test_params_satellite_vs_terrestrial () =
  let g = bench () in
  let sat u = Hnm.cost_of_utilization (s56 g) ~utilization:u in
  let terr u = Hnm.cost_of_utilization (t56 g) ~utilization:u in
  Alcotest.(check bool) "satellite dearer when idle" true (sat 0. > terr 0.);
  Alcotest.(check bool) "never more than twice terrestrial" true
    (float_of_int (sat 0.) <= 2. *. float_of_int (terr 0.));
  Alcotest.(check int) "treated equally when saturated" (terr 0.99) (sat 0.99)

let test_min_cost_propagation_adjustment () =
  let g = bench () in
  Alcotest.(check bool) "satellite floor above base" true
    (Hnm_params.min_cost (s56 g)
    > (Hnm_params.for_line_type Line_type.S56).Hnm_params.base_min);
  Alcotest.(check bool) "floor below ceiling always" true
    (List.for_all
       (fun (l : Link.t) ->
         Hnm_params.min_cost l
         < (Hnm_params.for_line_type l.Link.line_type).Hnm_params.max_cost)
       (Graph.links g))

(* --- HNM dynamics (Fig 3 pipeline) --- *)

let delay_at link u = Queueing.delay_s link ~utilization:u

let test_hnm_flat_until_half () =
  let g = bench () in
  let h = Hnm.create (t56 g) in
  List.iter
    (fun u ->
      ignore (Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) u));
      Alcotest.(check int)
        (Printf.sprintf "still minimum at %.2f" u)
        (Hnm_params.min_cost (t56 g))
        (Hnm.current_cost h))
    [ 0.1; 0.2; 0.3; 0.4; 0.45 ]

let test_hnm_movement_limits () =
  let g = bench () in
  let h = Hnm.create (t56 g) in
  (* Slam the link to saturation: each period may rise by at most 16. *)
  let costs =
    List.init 6 (fun _ ->
        Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) 0.99))
  in
  let rec deltas = function
    | a :: (b :: _ as rest) -> (b - a) :: deltas rest
    | _ -> []
  in
  List.iter
    (fun d -> Alcotest.(check bool) "up-step <= 16" true (d <= 16))
    (deltas (30 :: costs));
  (* The utilization estimate clamps at 0.99, whose raw cost is 89: the
     link parks within one unit of its 90-unit ceiling. *)
  Alcotest.(check bool) "settles at the ceiling" true (List.nth costs 5 >= 89)

let test_hnm_march_up () =
  (* While a full oscillation saturates both movement limits, the
     asymmetry (down one less than up) makes the peak cost climb exactly
     one unit per cycle (§5.4's epsilon-spreading heuristic). *)
  let g = bench () in
  let h = Hnm.create (t56 g) in
  let peaks =
    List.init 4 (fun _ ->
        let peak =
          Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) 0.99)
        in
        ignore (Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) 0.));
        peak)
  in
  match peaks with
  | [ p1; p2; p3; p4 ] ->
    Alcotest.(check int) "cycle 2 peak" (p1 + 1) p2;
    Alcotest.(check int) "cycle 3 peak" (p2 + 1) p3;
    Alcotest.(check int) "cycle 4 peak" (p3 + 1) p4
  | _ -> Alcotest.fail "expected four cycles"

let test_hnm_easing_in () =
  let g = bench () in
  let h = Hnm.create_easing_in (t56 g) in
  Alcotest.(check int) "starts at ceiling" 90 (Hnm.current_cost h);
  let prev = ref 90 in
  for _ = 1 to 8 do
    let c = Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) 0.1) in
    Alcotest.(check bool) "monotone descent" true (c <= !prev);
    Alcotest.(check bool) "descends at most max_down" true (!prev - c <= 15);
    prev := c
  done;
  Alcotest.(check int) "lands at the floor" (Hnm_params.min_cost (t56 g)) !prev

let test_hnm_bounds_always () =
  let g = bench () in
  let h = Hnm.create (t96 g) in
  let p = Hnm.params h in
  List.iter
    (fun u ->
      let c = Hnm.period_update h ~measured_delay_s:(delay_at (t96 g) u) in
      Alcotest.(check bool) "within [min,max]" true
        (c >= Hnm_params.min_cost (t96 g) && c <= p.Hnm_params.max_cost))
    [ 0.; 0.99; 0.; 0.99; 0.5; 1.0; 0.7; 0. ]

let prop_hnm_bounded_and_limited =
  QCheck2.Test.make ~name:"hnm: always clipped, movement always limited"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 60) (float_range 0. 1.2))
    (fun utils ->
      let g = bench () in
      let l = t56 g in
      let h = Hnm.create l in
      let p = Hnm.params h in
      let last = ref (Hnm.current_cost h) in
      List.for_all
        (fun u ->
          let c = Hnm.period_update h ~measured_delay_s:(delay_at l u) in
          let ok =
            c >= Hnm_params.min_cost l
            && c <= p.Hnm_params.max_cost
            && c - !last <= p.Hnm_params.max_up
            && !last - c <= p.Hnm_params.max_down
          in
          last := c;
          ok)
        utils)

(* --- HNM custom configurations (the ablation switches) --- *)

let test_hnm_no_averaging_tracks_instantly () =
  let g = bench () in
  let config =
    { (Hnm.default_config Line_type.T56) with Hnm.averaging = false }
  in
  let h = Hnm.create_custom config (t56 g) in
  (* Without the filter the very first saturated sample demands the full
     raw cost; the movement limit still caps the step. *)
  let c1 = Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) 0.99) in
  Alcotest.(check int) "still movement-limited" 46 c1;
  Alcotest.(check (float 1e-6)) "average = sample (no smoothing)" 0.99
    (Hnm.average_utilization h)

let test_hnm_no_movement_limits_jumps () =
  let g = bench () in
  let config =
    { (Hnm.default_config Line_type.T56) with
      Hnm.averaging = false;
      movement_limits = false }
  in
  let h = Hnm.create_custom config (t56 g) in
  let c1 = Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) 0.99) in
  Alcotest.(check int) "jumps straight to the raw cost" 89 c1;
  let c2 = Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) 0.) in
  Alcotest.(check int) "and straight back down" 30 c2

let test_hnm_symmetric_limits_no_march () =
  let g = bench () in
  let config =
    { (Hnm.default_config Line_type.T56) with Hnm.march_up = false }
  in
  let h = Hnm.create_custom config (t56 g) in
  let peaks =
    List.init 4 (fun _ ->
        let peak = Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) 0.99) in
        ignore (Hnm.period_update h ~measured_delay_s:(delay_at (t56 g) 0.));
        peak)
  in
  (* Symmetric limits: down = up, so the peak no longer climbs. *)
  (match peaks with
  | p1 :: rest -> List.iter (fun p -> Alcotest.(check int) "flat peaks" p1 p) rest
  | [] -> Alcotest.fail "no peaks");
  ignore peaks

let test_metric_custom_hnspf () =
  let g = bench () in
  let m =
    Metric.create_custom_hnspf
      (fun (l : Link.t) ->
        { (Hnm.default_config l.Link.line_type) with Hnm.averaging = false })
      g
  in
  Alcotest.(check bool) "kind is Hn_spf" true (Metric.kind m = Metric.Hn_spf);
  Alcotest.(check int) "idle cost standard" 30 (Metric.cost m (t56 g).Link.id)

(* --- D-SPF --- *)

let test_dspf_bias_floor () =
  let g = bench () in
  let d = Dspf.create (t56 g) in
  let c = Dspf.period_update d ~measured_delay_s:0.0001 in
  Alcotest.(check int) "never below bias" (Dspf.bias Line_type.T56) c

let test_dspf_tracks_delay_unsmoothed () =
  let g = bench () in
  let d = Dspf.create (t56 g) in
  let c1 = Dspf.period_update d ~measured_delay_s:0.4 in
  let c2 = Dspf.period_update d ~measured_delay_s:0.02 in
  Alcotest.(check int) "400ms is 40 units" 40 c1;
  Alcotest.(check int) "drops instantly - no averaging, no limits" 2 c2

let test_dspf_cap () =
  let g = bench () in
  let d = Dspf.create (t96 g) in
  Alcotest.(check int) "capped at 254" 254
    (Dspf.period_update d ~measured_delay_s:10.)

(* --- Legacy 1969 metric --- *)

let test_legacy_metric () =
  Alcotest.(check int) "constant" 4 Legacy.constant;
  Alcotest.(check int) "empty queue" 4 (Legacy.cost_of_queue ~queue_length:0);
  Alcotest.(check int) "ten packets" 14 (Legacy.cost_of_queue ~queue_length:10);
  Alcotest.(check int) "capped" Units.max_cost
    (Legacy.cost_of_queue ~queue_length:10_000);
  Alcotest.check_raises "negative queue"
    (Invalid_argument "Legacy.cost_of_queue: negative queue") (fun () ->
      ignore (Legacy.cost_of_queue ~queue_length:(-1)))

(* --- Significance --- *)

let test_significance_fixed_threshold () =
  let s = Significance.create (Significance.Fixed 14) ~initial_cost:30 in
  Alcotest.(check bool) "small change suppressed" false
    (Significance.consider s ~cost:35);
  Alcotest.(check bool) "big change floods" true (Significance.consider s ~cost:46);
  Alcotest.(check int) "last flooded" 46 (Significance.last_flooded s)

let test_significance_fifty_second_rule () =
  let s = Significance.create (Significance.Fixed 100) ~initial_cost:30 in
  let flooded = ref 0 in
  for _ = 1 to 10 do
    if Significance.consider s ~cost:31 then incr flooded
  done;
  (* 10 periods = 100 s: the 50-second reliability timer must fire twice. *)
  Alcotest.(check int) "reliability floods" 2 !flooded

let test_significance_decay () =
  let s = Significance.create Significance.dspf_policy ~initial_cost:10 in
  (* Delta 4 < 6.4 initially, but the threshold decays by 1.28 per quiet
     period, so the same delta becomes significant before the timer. *)
  let rec run n = if Significance.consider s ~cost:14 then n else run (n + 1) in
  let waited = run 0 in
  Alcotest.(check bool) "flooded before the 5-period timer" true (waited < 4)

(* --- Metric facade --- *)

(* One batch metric pass with only link [lid] up, fed [delay_s]; the
   number of floods. *)
let period_one m lid ~delay_s =
  let nl = Graph.link_count (Metric.graph m) in
  Metric.period_update_all m
    ~up:(Array.init nl (fun i -> i = Link.id_to_int lid))
    ~link_delay_s:(Array.make nl delay_s) ~changed_ids:(Array.make nl 0)
    ~changed_costs:(Array.make nl 0)

let test_metric_kinds () =
  List.iter
    (fun k ->
      match Metric.kind_of_name (Metric.kind_name k) with
      | Some k' -> Alcotest.(check bool) "name roundtrip" true (k = k')
      | None -> Alcotest.fail "kind_of_name failed")
    [ Metric.Min_hop; Metric.Static_capacity; Metric.D_spf; Metric.Hn_spf ]

let test_static_capacity_kind () =
  let g = bench () in
  let m = Metric.create Metric.Static_capacity g in
  (* Costs equal the HN-SPF idle floor and never move. *)
  Alcotest.(check int) "56T pinned at 30" 30 (Metric.cost m (t56 g).Link.id);
  Alcotest.(check int) "9.6T pinned at its floor" 70
    (Metric.cost m (t96 g).Link.id);
  Alcotest.(check bool) "satellite floor above terrestrial" true
    (Metric.cost m (s56 g).Link.id > 30);
  Alcotest.(check bool) "never updates" true
    (period_one m (t56 g).Link.id ~delay_s:5. = 0);
  Alcotest.(check int) "equilibrium cost is the floor at any load" 30
    (Metric.equilibrium_cost Metric.Static_capacity (t56 g) ~utilization:0.99)

let test_metric_minhop_is_static () =
  let g = bench () in
  let m = Metric.create Metric.Min_hop g in
  Graph.iter_links g (fun l ->
      Alcotest.(check int) "unit cost" 1 (Metric.cost m l.Link.id);
      Alcotest.(check bool) "never updates" true
        (period_one m l.Link.id ~delay_s:5. = 0));
  Alcotest.(check int) "no updates flooded" 0 (Metric.updates_flooded m)

let test_metric_flooded_vs_local () =
  let g = bench () in
  let m = Metric.create Metric.Hn_spf g in
  let l = (t56 g).Link.id in
  (* A sub-threshold change updates the local cost but not the flooded one. *)
  ignore (period_one m l ~delay_s:(delay_at (t56 g) 0.55));
  Alcotest.(check bool) "local moved" true (Metric.local_cost m l > 30);
  Alcotest.(check int) "flooded unchanged" 30 (Metric.cost m l)

let test_metric_link_up_easing () =
  let g = bench () in
  let m = Metric.create Metric.Hn_spf g in
  let l = (t56 g).Link.id in
  Metric.link_up m l;
  Alcotest.(check int) "revived link floods its ceiling" 90 (Metric.cost m l)

let test_metric_equilibrium_cost_consistency () =
  let g = bench () in
  List.iter
    (fun k ->
      let c0 = Metric.equilibrium_cost k (t56 g) ~utilization:0. in
      Alcotest.(check int) "matches idle_cost" (Metric.idle_cost k (t56 g)) c0)
    [ Metric.Min_hop; Metric.D_spf; Metric.Hn_spf ]

(* --- The one metric pass against a per-link reference --- *)

(* The per-link reference: each link's own metric state and significance
   test, driven one link at a time through the scalar [period_update]s —
   the primitives {!Routing_equilibrium.Cobweb} uses. *)
type ref_link =
  | Ref_dspf of Dspf.t * Significance.t
  | Ref_hnm of Hnm.t * Significance.t

let ref_link variant (l : Link.t) =
  match variant with
  | `Dspf ->
    let d = Dspf.create l in
    Ref_dspf
      ( d,
        Significance.create Significance.dspf_policy
          ~initial_cost:(Dspf.current_cost d) )
  | `Hnspf config ->
    let config = config l in
    let h = Hnm.create_custom config l in
    Ref_hnm
      ( h,
        Significance.create
          (Significance.Fixed config.Hnm.params.Hnm_params.min_change)
          ~initial_cost:(Hnm.current_cost h) )

(* The reference's period for one up link: [Some cost] when it floods. *)
let ref_period r ~delay_s =
  let c, s =
    match r with
    | Ref_dspf (d, s) -> (Dspf.period_update d ~measured_delay_s:delay_s, s)
    | Ref_hnm (h, s) -> (Hnm.period_update h ~measured_delay_s:delay_s, s)
  in
  if Significance.consider s ~cost:c then Some c else None

let ref_local = function
  | Ref_dspf (d, _) -> Dspf.current_cost d
  | Ref_hnm (h, _) -> Hnm.current_cost h

let ablated (l : Link.t) =
  { (Hnm.default_config l.Link.line_type) with
    Hnm.averaging = false;
    movement_limits = false }

let prop_batch_matches_per_link (name, variant) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "batch = per-link, %s" name)
    ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 10 in
      let line_type =
        List.nth Line_type.all (Rng.int rng (List.length Line_type.all))
      in
      let g =
        Generators.ring_chord ~line_type rng ~nodes ~chords:(Rng.int rng nodes)
      in
      let nl = Graph.link_count g in
      let m =
        match variant with
        | `Dspf -> Metric.create Metric.D_spf g
        | `Hnspf config -> Metric.create_custom_hnspf config g
      in
      let refs = Array.init nl (fun i -> ref_link variant (link g i)) in
      let ref_flooded = Array.map ref_local refs in
      let src i = Node.to_int (link g i).Link.src in
      let changed_ids = Array.make nl 0 and changed_costs = Array.make nl 0 in
      let periods = 5 + Rng.int rng 30 in
      let ok = ref true in
      for _ = 1 to periods do
        let up = Array.init nl (fun _ -> Rng.int rng 8 > 0) in
        let link_delay_s =
          Array.init nl (fun i ->
              Queueing.delay_s (link g i) ~utilization:(Rng.float rng 1.2))
        in
        let expected = ref [] in
        for i = nl - 1 downto 0 do
          if up.(i) then
            match ref_period refs.(i) ~delay_s:link_delay_s.(i) with
            | Some c ->
              ref_flooded.(i) <- c;
              expected := (i, c) :: !expected
            | None -> ()
        done;
        let count =
          Metric.period_update_all m ~up ~link_delay_s ~changed_ids
            ~changed_costs
        in
        let got =
          List.init count (fun k -> (changed_ids.(k), changed_costs.(k)))
        in
        (* Same floods with the same costs... *)
        if List.sort compare got <> !expected then ok := false;
        (* ... grouped by origin: (origin, link id) strictly ascending. *)
        for k = 1 to count - 1 do
          let a = changed_ids.(k - 1) and b = changed_ids.(k) in
          if compare (src a, a) (src b, b) >= 0 then ok := false
        done;
        for i = 0 to nl - 1 do
          let lid = Link.id_of_int i in
          if Metric.cost m lid <> ref_flooded.(i) then ok := false;
          if Metric.local_cost m lid <> ref_local refs.(i) then ok := false
        done
      done;
      !ok)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_metric"
    [ ( "units",
        [ Alcotest.test_case "roundtrip" `Quick test_units_roundtrip ] );
      ( "queueing",
        [ Alcotest.test_case "service times" `Quick test_mm1_service_times;
          Alcotest.test_case "mm1 roundtrip" `Quick test_mm1_roundtrip;
          Alcotest.test_case "mm1 clamps" `Quick test_mm1_clamps;
          Alcotest.test_case "propagation" `Quick test_mm1_delay_includes_propagation;
          Alcotest.test_case "mm1k blocking range" `Quick test_mm1k_blocking_range;
          Alcotest.test_case "mm1k asymptotics" `Quick test_mm1k_blocking_asymptotics;
          Alcotest.test_case "mm1k sojourn bounded" `Quick test_mm1k_sojourn_bounded;
          Alcotest.test_case "mm1k ~ mm1 light" `Quick test_mm1k_matches_mm1_when_light;
          Alcotest.test_case "dspf dynamic range (§3.2)" `Quick
            test_dspf_dynamic_range;
          Alcotest.test_case "m/d/1 P-K" `Quick test_md1_half_the_queueing;
          Alcotest.test_case "hnm robust to queueing model" `Quick
            test_hnm_robust_to_queueing_model ]
        @ qsuite [ prop_mm1k_blocking_monotone ] );
      ( "measurement",
        [ Alcotest.test_case "averages" `Quick test_measurement_averages;
          Alcotest.test_case "idle nonzero" `Quick test_measurement_idle_not_zero ]
      );
      ( "hnm_params",
        [ Alcotest.test_case "56k anchors" `Quick test_params_56k_anchors;
          Alcotest.test_case "all line types" `Quick test_params_all_line_types;
          Alcotest.test_case "9.6 vs 56 (§4.4)" `Quick test_params_9_6_vs_56;
          Alcotest.test_case "satellite (§4.4)" `Quick
            test_params_satellite_vs_terrestrial;
          Alcotest.test_case "propagation floor" `Quick
            test_min_cost_propagation_adjustment ] );
      ( "hnm",
        [ Alcotest.test_case "flat until 50%" `Quick test_hnm_flat_until_half;
          Alcotest.test_case "movement limits" `Quick test_hnm_movement_limits;
          Alcotest.test_case "march up" `Quick test_hnm_march_up;
          Alcotest.test_case "easing in" `Quick test_hnm_easing_in;
          Alcotest.test_case "bounds" `Quick test_hnm_bounds_always ]
        @ qsuite [ prop_hnm_bounded_and_limited ] );
      ( "hnm custom",
        [ Alcotest.test_case "no averaging" `Quick test_hnm_no_averaging_tracks_instantly;
          Alcotest.test_case "no movement limits" `Quick
            test_hnm_no_movement_limits_jumps;
          Alcotest.test_case "symmetric limits" `Quick
            test_hnm_symmetric_limits_no_march;
          Alcotest.test_case "metric facade" `Quick test_metric_custom_hnspf ] );
      ( "dspf",
        [ Alcotest.test_case "bias floor" `Quick test_dspf_bias_floor;
          Alcotest.test_case "unsmoothed" `Quick test_dspf_tracks_delay_unsmoothed;
          Alcotest.test_case "cap" `Quick test_dspf_cap ] );
      ( "legacy",
        [ Alcotest.test_case "queue metric" `Quick test_legacy_metric ] );
      ( "significance",
        [ Alcotest.test_case "fixed threshold" `Quick test_significance_fixed_threshold;
          Alcotest.test_case "50s rule" `Quick test_significance_fifty_second_rule;
          Alcotest.test_case "decay" `Quick test_significance_decay ] );
      ( "metric",
        [ Alcotest.test_case "kind names" `Quick test_metric_kinds;
          Alcotest.test_case "static capacity" `Quick test_static_capacity_kind;
          Alcotest.test_case "min-hop static" `Quick test_metric_minhop_is_static;
          Alcotest.test_case "flooded vs local" `Quick test_metric_flooded_vs_local;
          Alcotest.test_case "link up easing" `Quick test_metric_link_up_easing;
          Alcotest.test_case "equilibrium consistency" `Quick
            test_metric_equilibrium_cost_consistency ]
        @ qsuite
            (List.map prop_batch_matches_per_link
               [ ("D-SPF", `Dspf);
                 ("HN-SPF", `Hnspf (fun (l : Link.t) ->
                      Hnm.default_config l.Link.line_type));
                 ("HN-SPF ablated", `Hnspf ablated) ]) ) ]
