(* Tests for the flight recorder: ring accounting under wraparound,
   well-nestedness and time-ordering of recorded streams (qcheck over
   random span programs), byte-deterministic Chrome trace-event export
   with a JSON round-trip and digest, multi-domain recording through
   the pool probe, and the stage recorder's per-stage words. *)

module Json = Routing_obs.Json
module Tracer = Routing_obs.Tracer
module Trace_export = Routing_obs.Trace_export
module Span = Routing_obs.Span
module Telemetry = Routing_obs.Telemetry
module Domain_pool = Routing_metric.Domain_pool

(* --- ring accounting --- *)

let test_wraparound () =
  let t = Tracer.create ~capacity:16 () in
  let ev = Tracer.intern t "tick" in
  for i = 0 to 49 do
    Tracer.instant t ev ~arg:i
  done;
  Alcotest.(check int) "one slot" 1 (Tracer.slots t);
  Alcotest.(check int) "recorded" 50 (Tracer.slot_recorded t 0);
  Alcotest.(check int) "dropped" 34 (Tracer.slot_dropped t 0);
  Alcotest.(check int) "total dropped" 34 (Tracer.dropped t);
  (* The retained window is the newest [capacity] events, oldest first,
     with their original sequence timestamps. *)
  let args = ref [] and last_ts = ref neg_infinity in
  Tracer.iter_slot t 0 (fun ~ts ~kind ~name ~a ~b:_ ->
      Alcotest.(check bool) "instant kind" true (kind = Tracer.Instant);
      Alcotest.(check string) "name survives" "tick" (Tracer.name t name);
      Alcotest.(check bool) "ts increases" true (ts > !last_ts);
      last_ts := ts;
      args := a :: !args);
  Alcotest.(check (list int))
    "newest 16 retained, in order"
    (List.init 16 (fun i -> 34 + i))
    (List.rev !args)

let test_null_tracer () =
  Alcotest.(check bool) "disabled" false (Tracer.enabled Tracer.null);
  Alcotest.(check int) "intern is 0" 0 (Tracer.intern Tracer.null "x");
  Tracer.span_begin Tracer.null 0;
  Tracer.span_end Tracer.null 0;
  Tracer.instant Tracer.null 0 ~arg:1;
  Tracer.counter Tracer.null 0 ~value:2;
  Alcotest.(check int) "no slots" 0 (Tracer.slots Tracer.null);
  match Trace_export.digest (Trace_export.chrome_json Tracer.null) with
  | Ok d -> Alcotest.(check int) "no events" 0 d.Trace_export.total_events
  | Error e -> Alcotest.fail e

let test_telemetry_default_null () =
  let tele = Telemetry.create () in
  Alcotest.(check bool)
    "telemetry without a tracer records nothing" false
    (Tracer.enabled (Telemetry.tracer tele))

(* --- qcheck: random span programs stay well-nested and time-ordered --- *)

(* A program is a tree of named spans with instants at the leaves.  Replay
   records it; the checks below re-derive the nesting from the ring. *)
type program = Leaf of int | Node of int * program list

let program_gen =
  let open QCheck2.Gen in
  sized_size (int_range 1 5) @@ fix (fun self n ->
      if n = 0 then map (fun i -> Leaf i) (int_range 0 99)
      else
        oneof
          [ map (fun i -> Leaf i) (int_range 0 99);
            map2
              (fun name children -> Node (name, children))
              (int_range 0 7)
              (list_size (int_range 0 3) (self (n - 1))) ])

let rec replay t ids = function
  | Leaf arg -> Tracer.instant t ids.(0) ~arg
  | Node (name, children) ->
    Tracer.span_begin t ids.(1 + name);
    List.iter (replay t ids) children;
    Tracer.span_end t ids.(1 + name)

let prop_well_nested_time_ordered =
  QCheck2.Test.make ~name:"tracer stream is well-nested and time-ordered"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 8) program_gen)
    (fun programs ->
      let t = Tracer.create ~capacity:65536 () in
      let ids = Array.init 9 (fun i ->
          Tracer.intern t (if i = 0 then "leaf" else Printf.sprintf "s%d" i))
      in
      List.iter (replay t ids) programs;
      let stack = ref [] in
      let last_ts = ref neg_infinity in
      let ok = ref true in
      Tracer.iter_slot t 0 (fun ~ts ~kind ~name ~a:_ ~b:_ ->
          if ts <= !last_ts then ok := false;
          last_ts := ts;
          match kind with
          | Tracer.Begin -> stack := name :: !stack
          | Tracer.End -> (
            match !stack with
            | top :: rest when top = name -> stack := rest
            | _ -> ok := false)
          | Tracer.Instant | Tracer.Counter -> ());
      !ok && !stack = [] && Tracer.dropped t = 0)

(* --- Chrome export --- *)

(* A fixed little scenario shared by the determinism and digest tests:
   two nested spans with a counter and an instant inside. *)
let record_fixture () =
  let t = Tracer.create ~capacity:64 () in
  let period = Tracer.intern t "period" in
  let refresh = Tracer.intern t "refresh" in
  let drops = Tracer.intern t "drops" in
  for i = 0 to 2 do
    Tracer.span_begin_range t period ~lo:i ~hi:(i + 1);
    Tracer.span_begin t refresh;
    Tracer.instant t refresh ~arg:i;
    Tracer.span_end t refresh;
    Tracer.counter t drops ~value:(10 * i);
    Tracer.span_end t period
  done;
  t

let test_chrome_byte_deterministic () =
  let render () = Json.to_string (Trace_export.chrome_json (record_fixture ())) in
  let a = render () and b = render () in
  Alcotest.(check string) "identical bytes across runs" a b

let test_chrome_roundtrip_and_digest () =
  let t = record_fixture () in
  let json = Trace_export.chrome_json t in
  (* The export survives the repo's own JSON codec. *)
  let reparsed =
    match Json.of_string (Json.to_string json) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "round-trips" true (Json.equal reparsed json);
  match Trace_export.digest reparsed with
  | Error e -> Alcotest.fail e
  | Ok d ->
    (* 3 iterations x (2 B + 2 E + 1 instant + 1 counter) = 18 events. *)
    Alcotest.(check int) "events" 18 d.Trace_export.total_events;
    Alcotest.(check int) "dropped" 0 d.Trace_export.dropped;
    Alcotest.(check (list (pair int int)))
      "one track, all events" [ (0, 18) ] d.Trace_export.tracks;
    (* Untimed clock: durations are sequence-number differences.  Each
       period span opens at s and closes at s+5; each refresh at s+1 and
       s+3. *)
    Alcotest.(check bool)
      "span totals" true
      (List.assoc "period" d.Trace_export.span_totals = 15.
      && List.assoc "refresh" d.Trace_export.span_totals = 6.)

(* --- multi-domain recording through the pool probe --- *)

let test_pool_probe_multi_domain () =
  let t = Tracer.create () in
  let pool = Domain_pool.create 3 in
  Domain_pool.set_probe pool (Some (Tracer.pool_probe t));
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () -> Domain_pool.parallel_for pool ~init:ignore 64 (fun () _ -> ()));
  Alcotest.(check bool) "some domain recorded" true (Tracer.slots t >= 1);
  (* Every track is independently well-nested (chunk spans never
     interleave within a domain). *)
  for slot = 0 to Tracer.slots t - 1 do
    let depth = ref 0 in
    Tracer.iter_slot t slot (fun ~ts:_ ~kind ~name:_ ~a:_ ~b:_ ->
        match kind with
        | Tracer.Begin -> incr depth
        | Tracer.End ->
          decr depth;
          if !depth < 0 then Alcotest.fail "unbalanced track"
        | Tracer.Instant | Tracer.Counter -> ());
    Alcotest.(check int)
      (Printf.sprintf "slot %d balanced" slot)
      0 !depth
  done;
  match Trace_export.digest (Trace_export.chrome_json t) with
  | Error e -> Alcotest.fail e
  | Ok d ->
    Alcotest.(check int)
      "digest covers every track"
      (List.fold_left (fun acc (_, n) -> acc + n) 0 d.Trace_export.tracks)
      d.Trace_export.total_events

(* --- Stages: the recorder's words are not the stage's --- *)

let words_of profile name =
  match
    List.find_opt (fun (r : Span.row) -> r.name = name) (Span.report profile)
  with
  | Some r -> (r.count, r.minor_words)
  | None -> Alcotest.failf "no %s row" name

(* Under a wall clock, an outer stage around six empty inner stages:
   the outer reads exactly the 6 words of the array it allocates
   (header and five fields), each inner 0, whatever the clock reads
   and quantile updates the recorder did meanwhile — with and without a
   live tracer on a test clock that itself allocates. *)
let test_stage_words_are_its_own () =
  let calls = 50 in
  List.iter
    (fun (what, tracer) ->
      let profile = Span.create ~clock:Span.wall () in
      let outer = Span.stage ~profile tracer "outer" in
      let inner =
        Array.init 6 (fun i ->
            Span.stage ~profile tracer (Printf.sprintf "inner%d" i))
      in
      for _ = 1 to calls do
        Span.enter outer;
        ignore (Sys.opaque_identity (Array.make 5 0));
        for i = 0 to 5 do
          Span.enter inner.(i);
          Span.leave inner.(i)
        done;
        Span.leave outer
      done;
      Alcotest.(check (pair int (float 0.)))
        (what ^ ": outer words are its own")
        (calls, float_of_int (6 * calls))
        (words_of profile "outer");
      Array.iteri
        (fun i _ ->
          Alcotest.(check (pair int (float 0.)))
            (Printf.sprintf "%s: inner%d allocates nothing" what i)
            (calls, 0.)
            (words_of profile (Printf.sprintf "inner%d" i)))
        inner)
    [ ("no tracer", Tracer.null);
      ("Fn-clock tracer",
       Tracer.create
         ~clock:(Tracer.Fn (fun () -> float_of_int (Sys.opaque_identity 3)))
         ()) ]

(* An untimed profile and a live untimed tracer: after one warm-up
   call, recording a stage allocates nothing — the profile's quantile
   estimators sort their first five observations without boxing — and
   durations and words read 0. *)
let test_stage_untimed_allocates_nothing () =
  let profile = Span.create () in
  let tracer = Tracer.create () in
  let st = Span.stage ~profile tracer "quiet" in
  Span.enter st;
  Span.leave st;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Span.enter st;
    Span.leave st
  done;
  Alcotest.(check (float 0.)) "no words" 0. (Gc.minor_words () -. before);
  match Span.report profile with
  | [ r ] ->
    Alcotest.(check int) "count" 101 r.Span.count;
    Alcotest.(check (float 0.)) "untimed total" 0. r.Span.total_s;
    Alcotest.(check (float 0.)) "untimed words" 0. r.Span.minor_words
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_tracer"
    [ ( "ring",
        [ Alcotest.test_case "wraparound accounting" `Quick test_wraparound;
          Alcotest.test_case "null tracer" `Quick test_null_tracer;
          Alcotest.test_case "telemetry default" `Quick
            test_telemetry_default_null ]
        @ qsuite [ prop_well_nested_time_ordered ] );
      ( "chrome",
        [ Alcotest.test_case "byte-deterministic" `Quick
            test_chrome_byte_deterministic;
          Alcotest.test_case "round-trip and digest" `Quick
            test_chrome_roundtrip_and_digest ] );
      ( "domains",
        [ Alcotest.test_case "pool probe" `Quick test_pool_probe_multi_domain ]
      );
      ( "stage",
        [ Alcotest.test_case "words are the stage's own" `Quick
            test_stage_words_are_its_own;
          Alcotest.test_case "untimed allocates nothing" `Quick
            test_stage_untimed_allocates_nothing ] ) ]
