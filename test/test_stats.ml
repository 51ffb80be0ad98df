(* Unit and property tests for the routing_stats library. *)

module Welford = Routing_stats.Welford
module Filter = Routing_stats.Filter
module Time_series = Routing_stats.Time_series
module Table = Routing_stats.Table
module Rng = Routing_stats.Rng

let check_float = Alcotest.(check (float 1e-9))

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* --- Welford --- *)

let test_welford_empty () =
  let w = Welford.create () in
  Alcotest.(check int) "count" 0 (Welford.count w);
  check_float "mean" 0. (Welford.mean w);
  check_float "variance" 0. (Welford.variance w)

let test_welford_basic () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Welford.count w);
  check_float "mean" 5. (Welford.mean w);
  (* Sample variance of this classic data set is 32/7. *)
  check_close "variance" 1e-9 (32. /. 7.) (Welford.variance w);
  check_float "min" 2. (Welford.min_value w);
  check_float "max" 9. (Welford.max_value w);
  check_float "total" 40. (Welford.total w)

let test_welford_reset () =
  let w = Welford.create () in
  Welford.add w 3.;
  Welford.reset w;
  Alcotest.(check int) "count after reset" 0 (Welford.count w);
  Welford.add w 10.;
  check_float "mean after reuse" 10. (Welford.mean w)

let naive_mean_var xs =
  let n = float_of_int (List.length xs) in
  let mean = List.fold_left ( +. ) 0. xs /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)
  in
  (mean, var)

let prop_welford_matches_naive =
  QCheck2.Test.make ~name:"welford matches naive mean/variance" ~count:200
    QCheck2.Gen.(list_size (int_range 2 100) (float_bound_exclusive 1000.))
    (fun xs ->
      QCheck2.assume (List.length xs >= 2);
      let w = Welford.create () in
      List.iter (Welford.add w) xs;
      let mean, var = naive_mean_var xs in
      Float.abs (Welford.mean w -. mean) < 1e-6
      && Float.abs (Welford.variance w -. var) < 1e-4)

let prop_welford_merge =
  QCheck2.Test.make ~name:"merge a b == feed both streams" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 50) (float_bound_exclusive 100.))
        (list_size (int_range 1 50) (float_bound_exclusive 100.)))
    (fun (xs, ys) ->
      let a = Welford.create () and b = Welford.create () in
      List.iter (Welford.add a) xs;
      List.iter (Welford.add b) ys;
      let merged = Welford.merge a b in
      let all = Welford.create () in
      List.iter (Welford.add all) (xs @ ys);
      Welford.count merged = Welford.count all
      && Float.abs (Welford.mean merged -. Welford.mean all) < 1e-9
      && Float.abs (Welford.variance merged -. Welford.variance all) < 1e-6)

(* --- Filters --- *)

let test_ewma_first_sample () =
  let f = Filter.ewma ~gain:0.5 in
  Alcotest.(check bool) "not primed" false (Filter.ewma_is_primed f);
  check_float "first sample taken whole" 10. (Filter.ewma_update f 10.);
  check_float "then halves toward new" 15. (Filter.ewma_update f 20.)

let test_ewma_is_hnm_filter () =
  (* The HNM filter: avg' = 0.5 * sample + 0.5 * avg (Fig 3). *)
  let f = Filter.ewma ~gain:0.5 in
  ignore (Filter.ewma_update f 0.8);
  ignore (Filter.ewma_update f 0.4);
  check_float "two periods" 0.6 (Filter.ewma_value f);
  ignore (Filter.ewma_update f 0.6);
  check_float "three periods" 0.6 (Filter.ewma_value f)

let test_ewma_set_and_reset () =
  let f = Filter.ewma ~gain:0.5 in
  Filter.ewma_set f 1.0;
  Alcotest.(check bool) "primed by set" true (Filter.ewma_is_primed f);
  check_float "forced value" 1.0 (Filter.ewma_value f);
  Filter.ewma_reset f;
  Alcotest.(check bool) "reset unprimes" false (Filter.ewma_is_primed f)

let test_ewma_invalid_gain () =
  Alcotest.check_raises "gain 0" (Invalid_argument "Filter.ewma: gain out of (0,1]")
    (fun () -> ignore (Filter.ewma ~gain:0.))

let test_moving_average () =
  let m = Filter.moving_average ~window:3 in
  check_float "one" 1. (Filter.moving_average_update m 1.);
  check_float "two" 1.5 (Filter.moving_average_update m 2.);
  check_float "three" 2. (Filter.moving_average_update m 3.);
  check_float "slides" 3. (Filter.moving_average_update m 4.);
  check_float "value" 3. (Filter.moving_average_value m)

(* --- Time series --- *)

let test_time_series_roundtrip () =
  let ts = Time_series.create "test" in
  for i = 0 to 9 do
    Time_series.record ts ~time:(float_of_int i) (float_of_int (i * i))
  done;
  Alcotest.(check int) "length" 10 (Time_series.length ts);
  let time, value = Time_series.get ts 3 in
  check_float "time" 3. time;
  check_float "value" 9. value;
  (match Time_series.last ts with
  | Some (t, v) ->
    check_float "last time" 9. t;
    check_float "last value" 81. v
  | None -> Alcotest.fail "expected last");
  Alcotest.(check int) "between" 3
    (List.length (Time_series.between ts ~lo:2. ~hi:5.))

let test_time_series_resample () =
  let ts = Time_series.create "resample" in
  for i = 0 to 9 do
    Time_series.record ts ~time:(float_of_int i) 1.
  done;
  let buckets = Time_series.resample ts ~period:5. in
  Alcotest.(check int) "two buckets" 2 (List.length buckets);
  List.iter (fun (_, v) -> check_float "bucket mean" 1. v) buckets

let test_time_series_stats () =
  let ts = Time_series.create "stats" in
  List.iteri (fun i v -> Time_series.record ts ~time:(float_of_int i) v)
    [ 1.; 2.; 3.; 4. ];
  let w = Time_series.stats_between ts ~lo:1. ~hi:3. in
  Alcotest.(check int) "window count" 2 (Welford.count w);
  check_float "window mean" 2.5 (Welford.mean w)

(* --- Table --- *)

let test_table_renders () =
  let t = Table.create ~title:"T" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_separator t;
  ignore (Table.add_float_row t "y" [ 2.5 ]);
  let s = Table.to_string t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "contains row" true
    (Astring.String.is_infix ~affix:"2.50" s)

let test_table_too_many_cells () =
  let t = Table.create [ ("only", Table.Left) ] in
  Alcotest.check_raises "too many"
    (Invalid_argument "Table.add_row: too many cells") (fun () ->
      Table.add_row t [ "a"; "b" ])

(* --- Quantile (P2) --- *)

module Quantile = Routing_stats.Quantile

let test_quantile_validation () =
  Alcotest.(check bool) "p=0 rejected" true
    (try ignore (Quantile.create 0.); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "p=1 rejected" true
    (try ignore (Quantile.create 1.); false with Invalid_argument _ -> true)

let test_quantile_small_samples_exact () =
  let q = Quantile.create 0.5 in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Quantile.value q));
  Quantile.add q 10.;
  Alcotest.(check (float 1e-9)) "one sample" 10. (Quantile.value q);
  Quantile.add q 30.;
  Quantile.add q 20.;
  Alcotest.(check (float 1e-9)) "median of three" 20. (Quantile.value q)

let test_quantile_converges_uniform () =
  let q50 = Quantile.create 0.5 and q95 = Quantile.create 0.95 in
  let r = Rng.create 77 in
  for _ = 1 to 50_000 do
    let x = Rng.float r 100. in
    Quantile.add q50 x;
    Quantile.add q95 x
  done;
  Alcotest.(check (float 2.0)) "median ~50" 50. (Quantile.value q50);
  Alcotest.(check (float 2.0)) "p95 ~95" 95. (Quantile.value q95)

let test_quantile_converges_exponential () =
  let q = Quantile.create 0.9 in
  let r = Rng.create 78 in
  for _ = 1 to 50_000 do
    Quantile.add q (Rng.exponential r ~mean:1.)
  done;
  (* Exponential p90 = ln 10 ~ 2.303. *)
  Alcotest.(check (float 0.15)) "p90 of exp(1)" 2.303 (Quantile.value q)

let prop_quantile_matches_exact =
  QCheck2.Test.make ~name:"p2 close to exact quantile" ~count:50
    QCheck2.Gen.(
      pair (int_range 0 1000)
        (list_size (int_range 100 2000) (float_bound_exclusive 1000.)))
    (fun (_, xs) ->
      let q = Quantile.create 0.5 in
      List.iter (Quantile.add q) xs;
      let sorted = List.sort Float.compare xs in
      let exact = List.nth sorted (List.length xs / 2) in
      let spread =
        List.nth sorted (List.length xs - 1) -. List.hd sorted
      in
      Float.abs (Quantile.value q -. exact) <= Float.max 1e-9 (0.15 *. spread))

(* The five first observations become the markers in [Float.compare]
   order.  Values come from a small pool so ties are common; [-0.] is
   left out because it compares equal to [0.], so two correct sorts may
   order the pair either way. *)
let prop_quantile_initial_markers_sorted =
  QCheck2.Test.make ~name:"p2 markers = Array.sort of first five" ~count:500
    QCheck2.Gen.(
      list_repeat 5
        (oneof
           [ map float_of_int (int_range (-3) 3);
             map (fun x -> if x = 0. then 0. else x) (float_range (-1e3) 1e3)
           ]))
    (fun xs ->
      let q = Quantile.create 0.5 in
      List.iter (Quantile.add q) xs;
      let expected = Array.of_list xs in
      Array.sort Float.compare expected;
      Array.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        expected (Quantile.markers q))

(* --- Ascii plot --- *)

module Ascii_plot = Routing_stats.Ascii_plot

let test_plot_renders_points () =
  let out =
    Ascii_plot.render ~width:20 ~height:6
      [ { Ascii_plot.label = "line"; glyph = '*';
          points = [ (0., 0.); (1., 1.) ] } ]
  in
  Alcotest.(check bool) "contains glyph" true (String.contains out '*');
  Alcotest.(check bool) "contains legend" true
    (Astring.String.is_infix ~affix:"* = line" out);
  (* Corner points land in opposite corners of the grid. *)
  let lines = String.split_on_char '\n' out in
  let first_grid_row = List.nth lines 0 in
  Alcotest.(check bool) "max y on top row" true
    (String.contains first_grid_row '*')

let test_plot_degenerate_range () =
  (* A single point (zero-width ranges) must not crash or divide by 0. *)
  let out =
    Ascii_plot.render
      [ { Ascii_plot.label = "dot"; glyph = 'o'; points = [ (5., 5.) ] } ]
  in
  Alcotest.(check bool) "renders" true (String.contains out 'o')

let test_plot_empty () =
  let out = Ascii_plot.render [] in
  Alcotest.(check bool) "frame only" true (String.length out > 0)

let test_plot_two_series_legend () =
  let out =
    Ascii_plot.render
      [ { Ascii_plot.label = "a"; glyph = 'a'; points = [ (0., 0.); (1., 2.) ] };
        { Ascii_plot.label = "b"; glyph = 'b'; points = [ (0., 2.); (1., 0.) ] } ]
  in
  Alcotest.(check bool) "both glyphs" true
    (String.contains out 'a' && String.contains out 'b')

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy_replays () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "n <= 0" (Invalid_argument "Rng.int: n <= 0") (fun () ->
      ignore (Rng.int r 0))

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let w = Welford.create () in
  for _ = 1 to 20_000 do
    Welford.add w (Rng.exponential r ~mean:4.)
  done;
  check_close "exponential mean" 0.15 4. (Welford.mean w)

let test_rng_poisson_mean () =
  let r = Rng.create 13 in
  let small = Welford.create () and large = Welford.create () in
  for _ = 1 to 20_000 do
    Welford.add small (float_of_int (Rng.poisson r ~mean:3.));
    Welford.add large (float_of_int (Rng.poisson r ~mean:50.))
  done;
  check_close "poisson mean small" 0.1 3. (Welford.mean small);
  check_close "poisson mean large" 1.0 50. (Welford.mean large)

let test_rng_shuffle_permutes () =
  let r = Rng.create 17 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  Array.sort Int.compare a;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) a

let prop_rng_float_in_range =
  QCheck2.Test.make ~name:"Rng.float in [0, x)" ~count:500
    QCheck2.Gen.(pair (int_range 0 10_000) (float_range 0.001 1e6))
    (fun (seed, x) ->
      let r = Rng.create seed in
      let v = Rng.float r x in
      v >= 0. && v < x)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_stats"
    [ ( "welford",
        [ Alcotest.test_case "empty" `Quick test_welford_empty;
          Alcotest.test_case "basic" `Quick test_welford_basic;
          Alcotest.test_case "reset" `Quick test_welford_reset ]
        @ qsuite [ prop_welford_matches_naive; prop_welford_merge ] );
      ( "filter",
        [ Alcotest.test_case "ewma first sample" `Quick test_ewma_first_sample;
          Alcotest.test_case "hnm filter" `Quick test_ewma_is_hnm_filter;
          Alcotest.test_case "set/reset" `Quick test_ewma_set_and_reset;
          Alcotest.test_case "invalid gain" `Quick test_ewma_invalid_gain;
          Alcotest.test_case "moving average" `Quick test_moving_average ] );
      ( "time_series",
        [ Alcotest.test_case "roundtrip" `Quick test_time_series_roundtrip;
          Alcotest.test_case "resample" `Quick test_time_series_resample;
          Alcotest.test_case "stats" `Quick test_time_series_stats ] );
      ( "table",
        [ Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells ] );
      ( "quantile",
        [ Alcotest.test_case "validation" `Quick test_quantile_validation;
          Alcotest.test_case "small samples" `Quick test_quantile_small_samples_exact;
          Alcotest.test_case "uniform" `Quick test_quantile_converges_uniform;
          Alcotest.test_case "exponential" `Quick test_quantile_converges_exponential ]
        @ qsuite
            [ prop_quantile_matches_exact;
              prop_quantile_initial_markers_sorted ] );
      ( "ascii_plot",
        [ Alcotest.test_case "renders points" `Quick test_plot_renders_points;
          Alcotest.test_case "degenerate range" `Quick test_plot_degenerate_range;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "two series" `Quick test_plot_two_series_legend ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes ]
        @ qsuite [ prop_rng_float_in_range ] ) ]
