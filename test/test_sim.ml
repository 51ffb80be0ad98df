(* Tests for the discrete-event packet simulator (routing_sim). *)

open Routing_topology
module Event_queue = Routing_sim.Event_queue
module Engine = Routing_sim.Engine
module Packet = Routing_sim.Packet
module Link_queue = Routing_sim.Link_queue
module Workload = Routing_sim.Workload
module Measure = Routing_sim.Measure
module Network = Routing_sim.Network
module Metric = Routing_metric.Metric
module Rng = Routing_stats.Rng
module Measurement = Routing_metric.Measurement

(* --- Event queue / engine --- *)

(* Pop every event, collecting each one's [a] operand in pop order. *)
let drain_operands q =
  let log = ref [] in
  while not (Event_queue.is_empty q) do
    ignore (Event_queue.pop_min q);
    log := Event_queue.popped_a q :: !log
  done;
  List.rev !log

let test_event_queue_time_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3. ~kind:0 ~a:3 ~b:0;
  Event_queue.add q ~time:1. ~kind:0 ~a:1 ~b:0;
  Event_queue.add q ~time:2. ~kind:0 ~a:2 ~b:0;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (drain_operands q)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 1 to 5 do
    Event_queue.add q ~time:7. ~kind:0 ~a:i ~b:0
  done;
  Alcotest.(check (list int)) "insertion order among ties" [ 1; 2; 3; 4; 5 ]
    (drain_operands q)

(* Random interleavings of pushes, pops and clock jumps against a model:
   a set of (time, insertion index, kind, a, b) rows in that order.  Each
   case draws a mode, a standing population pushed first (up to 1,000
   rows) and a push share for the up to 3,000 mixed operations after it
   (10 % to 90 %).  Three modes push absolute times in quarter seconds
   over spans from 5 ticks (most times tie exactly) to a million, so runs
   reach the heap's deeper levels, end on partial child groups of every
   size and double the columns several times.  Three modes push times in
   2⁻¹⁴-s ticks (16 to a wheel bucket) relative to the highest clock yet,
   so the wheel carries them: within one bucket or two (crowded enough
   that a push sorts past the walk cap), from 1/8 s before to 1 s after
   (inside the horizon) and from 1 s before to 2 s after (across it).
   Those modes also jump the clock 1 to 2 s past its high-water mark
   with [advance_to] while rows are pending, so the clock runs several
   seconds and the wheel's cursor wraps its ring several times.  Every
   mode but the one-bucket one pushes rows before the clock.  Every pop
   must return the model's head — earliest time, then earliest
   insertion — with its operands, be [due] at its time and not just
   before it, and set the clock to its time; a jump must set the clock;
   the queue's length must track the model's.  The cases do not shrink:
   with no printer a shrunk case is never shown, and shrinking thousands
   of operations can run for many minutes. *)
module Rows = Set.Make (struct
  type t = float * int * int * int * int

  let compare (t, i, _, _, _) (t', i', _, _, _) =
    match Float.compare t t' with 0 -> Int.compare i i' | c -> c
end)

type queue_op = Push of int | Pop | Jump of int

let prop_event_queue_matches_sorted_model =
  QCheck2.Test.make ~name:"event queue = sorted (time, insertion) model"
    ~count:600
    (QCheck2.Gen.no_shrink
    @@ QCheck2.Gen.(
      let* tick, lo, hi, relative =
        oneofl
          [ (0.25, 0, 4, false);
            (0.25, 0, 40, false);
            (0.25, 0, 1_000_000, false);
            (0x1p-14, 0, 15, true);
            (0x1p-14, -2_048, 16_383, true);
            (0x1p-14, -16_384, 32_768, true) ]
      in
      let push = map (fun k -> Push k) (int_range lo hi) in
      let jump = map (fun k -> Jump k) (int_range 16_384 32_768) in
      let* pushes = int_range 1 9 in
      let* standing = list_size (int_range 0 1000) push in
      let+ mixed =
        list_size (int_range 0 3000)
          (frequency
             ([ (10 * pushes, push); (10 * (10 - pushes), pure Pop) ]
             @ if relative then [ (1, jump) ] else []))
      in
      (tick, relative, standing @ mixed)))
    (fun (tick, relative, ops) ->
      let q = Event_queue.create () in
      let model = ref Rows.empty in
      let now = ref 0. and high = ref 0. in
      let ok = ref true in
      let clock_is t = (Event_queue.clock q).Event_queue.now = t in
      let pop () =
        match Rows.min_elt_opt !model with
        | None -> if not (Event_queue.is_empty q) then ok := false
        | Some ((time, _, kind, a, b) as row) ->
          model := Rows.remove row !model;
          if not (Event_queue.due q time && not (Event_queue.due q (Float.pred time)))
          then ok := false;
          let k = Event_queue.pop_min q in
          now := time;
          high := Float.max !high time;
          if
            k <> kind
            || Event_queue.popped_a q <> a
            || Event_queue.popped_b q <> b
            || not (clock_is time)
          then ok := false
      in
      List.iteri
        (fun i op ->
          (match op with
          | Push k ->
            let time = (if relative then !high else 0.) +. (float_of_int k *. tick) in
            let kind = i mod 5 and a = i * 7 and b = -i in
            Event_queue.add q ~time ~kind ~a ~b;
            model := Rows.add (time, i, kind, a, b) !model
          | Pop -> pop ()
          | Jump k ->
            let target = !high +. (float_of_int k *. tick) in
            Event_queue.advance_to q target;
            now := Float.max !now target;
            high := Float.max !high target;
            if not (clock_is !now) then ok := false);
          if Event_queue.length q <> Rows.cardinal !model then ok := false)
        ops;
      while not (Rows.is_empty !model) do
        pop ()
      done;
      !ok && Event_queue.is_empty q)

(* The two tiers break a time tie by insertion order.  Heap first: a row
   due past the horizon goes to the heap, a pop raises the window, and
   a later row at the same time goes to the wheel.  Wheel first: a row
   goes to the wheel, 70 earlier rows are prepended to its bucket, and a
   later row at the same time would sort after 71 rows of the bucket,
   past the walk cap, so it goes to the heap. *)
let test_event_queue_tier_ties () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:4.5 ~kind:0 ~a:0 ~b:0;
  Event_queue.add q ~time:5. ~kind:0 ~a:1 ~b:0;
  ignore (Event_queue.pop_min q);
  Event_queue.add q ~time:5. ~kind:0 ~a:2 ~b:0;
  Alcotest.(check (list int)) "heap row first" [ 1; 2 ] (drain_operands q);
  let q = Event_queue.create () in
  let t = 0.5 +. 0x1p-11 in
  Event_queue.add q ~time:(0.5 +. (15. *. 0x1p-14)) ~kind:0 ~a:1_000 ~b:0;
  Event_queue.add q ~time:t ~kind:0 ~a:100 ~b:0;
  for k = 1 to 70 do
    Event_queue.add q ~time:(t -. (float_of_int k *. 0x1p-20)) ~kind:0 ~a:k ~b:0
  done;
  Event_queue.add q ~time:t ~kind:0 ~a:101 ~b:0;
  Alcotest.(check (list int)) "wheel row first"
    (List.init 70 (fun i -> 70 - i) @ [ 100; 101; 1_000 ])
    (drain_operands q)

let test_event_queue_length_counts_both_tiers () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.add q ~time:(0.001 *. float_of_int i) ~kind:0 ~a:i ~b:0;
    Event_queue.add q ~time:(100. +. float_of_int i) ~kind:0 ~a:i ~b:0
  done;
  Alcotest.(check int) "both tiers" 20 (Event_queue.length q);
  for _ = 1 to 15 do
    ignore (Event_queue.pop_min q)
  done;
  Alcotest.(check int) "after 15 pops" 5 (Event_queue.length q);
  let e = Engine.create () in
  for _ = 1 to 3 do
    Engine.schedule e ~after:0.001 ~kind:0 ~a:0 ~b:0;
    Engine.schedule e ~after:100. ~kind:0 ~a:0 ~b:0
  done;
  Alcotest.(check int) "engine pending" 6 (Engine.pending e);
  Engine.run_until e 1.;
  Alcotest.(check int) "engine pending after the near rows" 3 (Engine.pending e)

(* 20,000 rows in one 2⁻¹⁰-s bucket, at 6,667 distinct times in tied
   triples, pushed in a scattered order (index 7,919·k mod 20,000), so
   most pushes sort into the middle of a long bucket and past the walk
   cap: they pop in (time, insertion) order all the same. *)
let test_event_queue_crowded_bucket () =
  let n = 20_000 in
  let q = Event_queue.create () in
  let rows =
    List.init n (fun k ->
        let time = 0.5 +. (float_of_int (k * 7_919 mod n / 3) *. 0x1p-24) in
        Event_queue.add q ~time ~kind:0 ~a:k ~b:0;
        (time, k))
  in
  Alcotest.(check (list int)) "time, then insertion order"
    (List.map snd (List.sort compare rows))
    (drain_operands q)

let test_engine_clock () =
  let e = Engine.create () in
  let seen = ref [] in
  (* Kind 1 records the clock and schedules a kind-0 event a second
     later; kind 0 only records. *)
  Engine.set_dispatch e (fun kind _ _ ->
      seen := Engine.now e :: !seen;
      if kind = 1 then Engine.schedule e ~after:1. ~kind:0 ~a:0 ~b:0);
  Engine.schedule e ~after:5. ~kind:0 ~a:0 ~b:0;
  Engine.schedule e ~after:2. ~kind:1 ~a:0 ~b:0;
  Engine.run_until e 10.;
  Alcotest.(check (list (float 1e-9))) "clock at each event" [ 2.; 3.; 5. ]
    (List.rev !seen);
  Alcotest.(check (float 1e-9)) "clock ends at horizon" 10. (Engine.now e);
  Alcotest.(check int) "events processed" 3 (Engine.events_processed e)

let test_engine_horizon_stops_events () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.set_dispatch e (fun _ _ _ -> fired := true);
  Engine.schedule e ~after:5. ~kind:0 ~a:0 ~b:0;
  Engine.run_until e 4.;
  Alcotest.(check bool) "not yet" false !fired;
  Engine.run_until e 6.;
  Alcotest.(check bool) "fired in second leg" true !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.run_until e 5.;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e ~at:1. ~kind:0 ~a:0 ~b:0)

(* --- Packet pool --- *)

(* Random allocations (up to 600, past the initial 256 slots, so the
   columns double) interleaved with frees of the oldest live packet:
   no id is handed out while live, every live packet keeps its fields
   across growth and reuse, the live count matches, and freeing an id
   twice is refused. *)
let prop_packet_pool_ids =
  QCheck2.Test.make ~name:"pool hands out each live id once" ~count:200
    QCheck2.Gen.(list_size (int_range 0 600) (option (int_range 0 1000)))
    (fun ops ->
      let pool = Packet.create (Engine.clock (Engine.create ())) in
      let live = Queue.create () and ok = ref true in
      let intact (p, v) =
        Packet.kind pool p = Packet.data
        && Packet.src pool p = v
        && Packet.token pool p = v
        && Packet.bits pool p = float_of_int v
      in
      List.iter
        (function
          | Some v ->
            let p =
              Packet.alloc pool ~kind:Packet.data ~src:v ~dst:0 ~token:v
                ~bits:(float_of_int v)
            in
            if Queue.fold (fun seen (q, _) -> seen || q = p) false live then
              ok := false;
            Queue.add (p, v) live
          | None -> (
            match Queue.take_opt live with
            | Some ((p, _) as e) ->
              if not (intact e) then ok := false;
              Packet.free pool p
            | None -> ()))
        ops;
      let all_intact = Queue.fold (fun acc e -> acc && intact e) true live in
      let double_free_refused =
        match Queue.take_opt live with
        | None -> true
        | Some (p, _) -> (
          Packet.free pool p;
          try
            Packet.free pool p;
            false
          with Invalid_argument _ -> true)
      in
      !ok && all_intact && double_free_refused
      && Packet.live pool = Queue.length live)

(* --- Link queue --- *)

let one_link () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.01 "A" "B" in
  let g = Builder.build b in
  (g, Graph.link g (Link.id_of_int 0))

(* One link's transmitter on its own engine and packet pool.  The
   dispatch runs completions through the queue and hands each arrival's
   packet to [on_arrival] before freeing it, as a simulator would. *)
let link_rig ?buffer_packets ~on_arrival ~on_drop () =
  let _, link = one_link () in
  let e = Engine.create () in
  let pool = Packet.create (Engine.clock e) in
  let m = Measurement.create link in
  let q = Link_queue.create ?buffer_packets e pool link m ~on_drop in
  Engine.set_dispatch e (fun kind _ b ->
      if kind = Engine.transmission_complete then Link_queue.complete q b
      else if kind = Engine.arrival then begin
        on_arrival pool b;
        Packet.free pool b
      end);
  (link, e, pool, m, q)

let data_packet pool (link : Link.t) bits =
  Packet.alloc pool ~kind:Packet.data ~src:(Node.to_int link.Link.src)
    ~dst:(Node.to_int link.Link.dst) ~token:0 ~bits

let control_packet pool (link : Link.t) bits =
  Packet.alloc pool ~kind:Packet.control ~src:(Node.to_int link.Link.src)
    ~dst:(Node.to_int link.Link.dst) ~token:0 ~bits

let test_link_queue_transmits_in_order () =
  let arrived = ref [] in
  let link, e, pool, m, q =
    link_rig
      ~on_arrival:(fun pool p -> arrived := Packet.bits pool p :: !arrived)
      ~on_drop:(fun _ _ -> Alcotest.fail "no drop expected")
      ()
  in
  Link_queue.enqueue q (data_packet pool link 560.);
  Link_queue.enqueue q (data_packet pool link 1120.);
  (* The first completes at 10 ms, the second at 30 ms: read the
     measurement window after each. *)
  Engine.run_until e 0.02;
  let first = Measurement.finish_period m in
  Engine.run_until e 10.;
  let second = Measurement.finish_period m in
  Alcotest.(check (list (float 1e-9))) "FIFO order" [ 560.; 1120. ]
    (List.rev !arrived);
  (* First packet: 10ms transmission + 10ms propagation; second waits 10ms
     then 20ms transmission + propagation. *)
  Alcotest.(check (list (float 1e-6))) "measured delays" [ 0.02; 0.04 ]
    [ first; second ];
  Alcotest.(check int) "transmitted" 2 (Link_queue.transmitted_packets q);
  Alcotest.(check (float 1e-9)) "bits" 1680. (Link_queue.transmitted_bits q)

let test_link_queue_drops_when_full () =
  let drops = ref 0 in
  let link, e, pool, _, q =
    link_rig ~buffer_packets:2
      ~on_arrival:(fun _ _ -> ())
      ~on_drop:(fun _ _ -> incr drops)
      ()
  in
  (* One in transmission + 2 waiting fit; the 4th and 5th are dropped. *)
  for _ = 1 to 5 do
    Link_queue.enqueue q (data_packet pool link 560.)
  done;
  Alcotest.(check int) "two dropped" 2 !drops;
  Alcotest.(check int) "queue holds three" 3 (Link_queue.queue_length q);
  Engine.run_until e 1.;
  Alcotest.(check int) "rest transmitted" 3 (Link_queue.transmitted_packets q)

let test_link_queue_down_drops_everything () =
  let drops = ref 0 and arrived = ref 0 in
  let link, e, pool, _, q =
    link_rig
      ~on_arrival:(fun _ _ -> incr arrived)
      ~on_drop:(fun _ _ -> incr drops)
      ()
  in
  let p () = data_packet pool link 560. in
  Link_queue.enqueue q (p ());
  Link_queue.enqueue q (p ());
  Link_queue.set_up q false;
  Alcotest.(check int) "both lost with the line" 2 !drops;
  Link_queue.enqueue q (p ());
  Alcotest.(check int) "enqueue while down drops" 3 !drops;
  Engine.run_until e 1.;
  Alcotest.(check int) "nothing arrives" 0 !arrived;
  Link_queue.set_up q true;
  Link_queue.enqueue q (p ());
  Engine.run_until e 2.;
  Alcotest.(check int) "works after revival" 1 !arrived

(* A line that fails mid-transmission frees the packet on the wire, and
   the pool hands its slot to the next packet at once.  The completion
   scheduled before the failure still fires: it carries the old epoch,
   so it must leave the reused slot alone — the new packet completes on
   its own schedule and arrives exactly once. *)
let test_link_queue_stale_completion_after_flap () =
  let arrivals = ref [] and drops = ref [] and engine = ref None in
  let link, e, pool, _, q =
    link_rig
      ~on_arrival:(fun pool p ->
        let now = Engine.now (Option.get !engine) in
        arrivals := (now, Packet.bits pool p) :: !arrivals)
      ~on_drop:(fun _ p -> drops := p :: !drops)
      ()
  in
  engine := Some e;
  let first = data_packet pool link 560. in
  Link_queue.enqueue q first;
  (* 560 bits on 56 kb/s: a completion is pending for t = 10 ms. *)
  Link_queue.set_up q false;
  Link_queue.set_up q true;
  Alcotest.(check (list int)) "the packet on the wire is lost" [ first ] !drops;
  let second = data_packet pool link 1120. in
  Alcotest.(check int) "its slot is reused" first second;
  Link_queue.enqueue q second;
  Engine.run_until e 1.;
  (* 20 ms of transmission + 10 ms of propagation; the stale 10-ms
     completion would have delivered it at 20 ms. *)
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "one arrival, on the new packet's own schedule" [ (0.03, 1120.) ]
    !arrivals;
  Alcotest.(check int) "one transmission counted" 1
    (Link_queue.transmitted_packets q);
  Alcotest.(check int) "every slot freed once" 0 (Packet.live pool)

let test_link_queue_priority_lane () =
  let arrived = ref [] in
  let link, e, pool, _, q =
    link_rig
      ~on_arrival:(fun pool p -> arrived := Packet.bits pool p :: !arrived)
      ~on_drop:(fun _ _ -> Alcotest.fail "no drop expected")
      ()
  in
  (* Three data packets queue up; a control packet enqueued afterwards must
     jump everything still waiting (but not the one on the wire). *)
  Link_queue.enqueue q (data_packet pool link 560.);
  Link_queue.enqueue q (data_packet pool link 561.);
  Link_queue.enqueue q (data_packet pool link 562.);
  Link_queue.enqueue_priority q (control_packet pool link 48.);
  Engine.run_until e 10.;
  Alcotest.(check (list (float 1e-9))) "control jumps the waiting data"
    [ 560.; 48.; 561.; 562. ]
    (List.rev !arrived)

let test_link_queue_priority_not_dropped () =
  let drops = ref 0 in
  let link, e, pool, _, q =
    link_rig ~buffer_packets:1
      ~on_arrival:(fun _ _ -> ())
      ~on_drop:(fun _ _ -> incr drops)
      ()
  in
  Link_queue.enqueue q (data_packet pool link 560.);
  Link_queue.enqueue q (data_packet pool link 560.);
  Link_queue.enqueue q (data_packet pool link 560.);
  Alcotest.(check int) "data overflow dropped" 1 !drops;
  for _ = 1 to 5 do
    Link_queue.enqueue_priority q (control_packet pool link 48.)
  done;
  Alcotest.(check int) "control never dropped for buffers" 1 !drops;
  Engine.run_until e 10.

(* --- Workload --- *)

(* A 6000 b/s flow of fixed-size packets (600 bits unless [size] says
   otherwise) between two nodes, with the engine dispatching its
   generation events; [inject] counts each packet, hands its size to
   [seen] and frees it. *)
let workload_rig ?(size = Workload.Fixed 600.) ?(seen = ignore) () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let g = Builder.build b in
  let tm = Traffic_matrix.create ~nodes:(Graph.node_count g) in
  Traffic_matrix.set tm ~src:(Node.of_int 0) ~dst:(Node.of_int 1) 6000.;
  let e = Engine.create () in
  let pool = Packet.create (Engine.clock e) in
  let count = ref 0 in
  let w =
    Workload.create ~size (Rng.create 3) e pool tm ~inject:(fun p ->
        incr count;
        seen (Packet.bits pool p);
        Packet.free pool p)
  in
  Engine.set_dispatch e (fun kind a _ ->
      if kind = Engine.generate then Workload.fire w a);
  (e, w, count)

let test_workload_poisson_rate () =
  let e, w, count = workload_rig () in
  Workload.start w;
  Engine.run_until e 100.;
  Workload.stop w;
  (* 6000 bps / 600 bit packets = 10 pkt/s: expect ~1000 +- noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "rate ~10pps (got %d in 100s)" !count)
    true
    (!count > 850 && !count < 1150)

let test_workload_scale () =
  let e, w, count = workload_rig () in
  Workload.start w;
  Workload.set_scale w 3.;
  Engine.run_until e 100.;
  Alcotest.(check bool)
    (Printf.sprintf "scaled rate ~30pps (got %d in 100s)" !count)
    true
    (!count > 2600 && !count < 3400)

(* A fixed size gets the one-header floor too: a [Fixed 0.] flow injects
   64-bit packets (at the rate that offers its demand in them), and a
   size above the floor passes through unchanged. *)
let test_workload_fixed_size_floor () =
  List.iter
    (fun (size, expected) ->
      let sizes = ref [] in
      let e, w, count =
        workload_rig ~size:(Workload.Fixed size)
          ~seen:(fun bits -> sizes := bits :: !sizes)
          ()
      in
      Workload.start w;
      Engine.run_until e 10.;
      Alcotest.(check bool)
        (Printf.sprintf "Fixed %g generates packets" size)
        true (!count > 0);
      List.iter
        (Alcotest.(check (float 0.))
           (Printf.sprintf "Fixed %g packet size" size)
           expected)
        !sizes)
    [ (0., 64.); (600., 600.) ]

(* --- Measure --- *)

let test_measure_indicators () =
  let m = Measure.create ~nodes:10 in
  Measure.record_delivery m ~delay_s:0.1 ~bits:600. ~hops:3 ~min_hops:2;
  Measure.record_delivery m ~delay_s:0.3 ~bits:600. ~hops:5 ~min_hops:4;
  Measure.record_drop m;
  Measure.record_updates m ~count:4 ~bits:4000.;
  let i = Measure.indicators m ~elapsed_s:10. in
  Alcotest.(check (float 1e-6)) "traffic" 120. i.Measure.internode_traffic_bps;
  Alcotest.(check (float 1e-6)) "rtt ms" 400. i.Measure.round_trip_delay_ms;
  Alcotest.(check (float 1e-6)) "updates/s" 0.4 i.Measure.updates_per_s;
  Alcotest.(check (float 1e-6)) "update period per node" 25.
    i.Measure.update_period_per_node_s;
  Alcotest.(check (float 1e-6)) "actual hops" 4. i.Measure.actual_path_hops;
  Alcotest.(check (float 1e-6)) "path ratio" (4. /. 3.) i.Measure.path_ratio;
  Alcotest.(check (float 1e-6)) "drops/s" 0.1 i.Measure.dropped_per_s;
  Alcotest.(check (float 1e-6)) "overhead" 400. i.Measure.overhead_bps

let test_measure_percentiles () =
  let m = Measure.create ~nodes:4 in
  for i = 1 to 1000 do
    Measure.record_delivery m
      ~delay_s:(float_of_int i /. 1000.)
      ~bits:600. ~hops:1 ~min_hops:1
  done;
  Alcotest.(check bool) "median ~500ms" true
    (Float.abs (Measure.median_delay_ms m -. 500.) < 25.);
  Alcotest.(check bool) "p95 ~950ms" true
    (Float.abs (Measure.p95_delay_ms m -. 950.) < 25.)

let test_measure_comparison_table () =
  let m = Measure.create ~nodes:2 in
  Measure.record_delivery m ~delay_s:0.1 ~bits:600. ~hops:1 ~min_hops:1;
  let i = Measure.indicators m ~elapsed_s:1. in
  let t = Measure.comparison_table [ ("before", i); ("after", i) ] in
  Alcotest.(check bool) "renders" true
    (String.length (Routing_stats.Table.to_string t) > 100)

(* --- Packet network end-to-end --- *)

let small_net kind =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "B" "C" in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "C" in
  let g = Builder.build b in
  let tm = Traffic_matrix.uniform ~nodes:3 ~pair_bps:4000. in
  let config = { (Network.default_config kind) with Network.seed = 11 } in
  (g, Network.create ~config g tm)

let test_network_delivers () =
  let _, net = small_net Metric.Hn_spf in
  Network.run net ~duration_s:60.;
  Alcotest.(check bool) "packets delivered" true (Network.delivered_packets net > 1000);
  Alcotest.(check bool) "nothing dropped at light load" true
    (Network.dropped_packets net < Network.delivered_packets net / 100);
  let i = Network.indicators net in
  (* One 56k hop: ~13ms each way; rtt well under 100ms at 7% load. *)
  Alcotest.(check bool)
    (Printf.sprintf "sane rtt (%.1f ms)" i.Measure.round_trip_delay_ms)
    true
    (i.Measure.round_trip_delay_ms > 10. && i.Measure.round_trip_delay_ms < 100.);
  Alcotest.(check bool) "path ~1 hop" true
    (i.Measure.actual_path_hops >= 1. && i.Measure.actual_path_hops < 1.3)

let test_network_minhop_never_updates () =
  let _, net = small_net Metric.Min_hop in
  Network.run net ~duration_s:120.;
  let i = Network.indicators net in
  Alcotest.(check (float 0.)) "static routing floods nothing" 0.
    i.Measure.updates_per_s

let test_network_fifty_second_floods () =
  let _, net = small_net Metric.Hn_spf in
  Network.run net ~duration_s:200.;
  let i = Network.indicators net in
  (* Light steady load: cost changes are insignificant, but each node must
     still flood at least every 50 s (§2.2). *)
  Alcotest.(check bool)
    (Printf.sprintf "reliability floods (%.1f s/node)" i.Measure.update_period_per_node_s)
    true
    (i.Measure.update_period_per_node_s <= 50.5);
  Alcotest.(check bool) "overhead accounted" true (i.Measure.overhead_bps > 0.)

let test_network_link_failure_reroutes () =
  let g, net = small_net Metric.Hn_spf in
  Network.run net ~duration_s:30.;
  let a = Option.get (Graph.node_by_name g "A") in
  let c = Option.get (Graph.node_by_name g "C") in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:c) in
  Network.set_link_up net direct.Link.id false;
  Network.set_link_up net (Graph.reverse g direct).Link.id false;
  Network.reset_measurements net;
  Network.run net ~duration_s:60.;
  let i = Network.indicators net in
  (* A<->C now rides through B: mean path length rises above 1. *)
  Alcotest.(check bool)
    (Printf.sprintf "detour visible (%.2f hops)" i.Measure.actual_path_hops)
    true
    (i.Measure.actual_path_hops > 1.2);
  Alcotest.(check bool) "still delivering" true
    (i.Measure.internode_traffic_bps > 10_000.)

(* A cut that disconnects a pair leaves packets already past it in
   flight; they still arrive, but the pair has no min-hop path any more.
   Such a delivery counts its actual hops as its minimum (the flow
   model's rule), so the minimum-path mean stays finite. *)
let test_network_cut_pair_min_path () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "B" "C" in
  let g = Builder.build b in
  let node name = Option.get (Graph.node_by_name g name) in
  let a = node "A" and c = node "C" in
  let tm = Traffic_matrix.create ~nodes:3 in
  Traffic_matrix.set tm ~src:a ~dst:c 40_000.;
  let config = { (Network.default_config Metric.Hn_spf) with Network.seed = 5 } in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:30.;
  Network.reset_measurements net;
  let ab = Option.get (Graph.find_link g ~src:a ~dst:(node "B")) in
  Network.set_link_up net ab.Link.id false;
  Network.set_link_up net (Graph.reverse g ab).Link.id false;
  Network.run net ~duration_s:5.;
  Alcotest.(check bool) "a packet past the cut delivered" true
    (Network.delivered_packets net > 0);
  let i = Network.indicators net in
  Alcotest.(check bool)
    (Printf.sprintf "minimum path %g finite and at most actual %g"
       i.Measure.minimum_path_hops i.Measure.actual_path_hops)
    true
    (Float.is_finite i.Measure.minimum_path_hops
    && i.Measure.minimum_path_hops <= i.Measure.actual_path_hops)

(* The minimum-path baseline follows the up topology: on a four-node
   ring, A to B takes one hop until the A-B trunk fails, then three, and
   every delivery after the cut is measured against the three-hop
   minimum, not the stale one-hop one. *)
let test_network_min_path_follows_cut () =
  let b = Builder.create () in
  List.iter
    (fun (x, y) -> ignore (Builder.trunk b Line_type.T56 ~propagation_s:0.002 x y))
    [ ("A", "B"); ("B", "C"); ("C", "D"); ("D", "A") ];
  let g = Builder.build b in
  let node name = Option.get (Graph.node_by_name g name) in
  let a = node "A" and b' = node "B" in
  let tm = Traffic_matrix.create ~nodes:4 in
  Traffic_matrix.set tm ~src:a ~dst:b' 20_000.;
  let config = { (Network.default_config Metric.Hn_spf) with Network.seed = 5 } in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:30.;
  let before = Network.indicators net in
  Alcotest.(check (float 1e-9)) "one hop before the cut" 1.
    before.Measure.minimum_path_hops;
  let ab = Option.get (Graph.find_link g ~src:a ~dst:b') in
  Network.set_link_up net ab.Link.id false;
  Network.set_link_up net (Graph.reverse g ab).Link.id false;
  Network.run net ~duration_s:1.;
  Network.reset_measurements net;
  Network.run net ~duration_s:30.;
  let after = Network.indicators net in
  Alcotest.(check bool) "deliveries after the cut" true
    (Network.delivered_packets net > 0);
  Alcotest.(check (float 1e-9)) "three hops around the ring" 3.
    after.Measure.minimum_path_hops;
  Alcotest.(check (float 1e-9)) "actual path equals it" 3.
    after.Measure.actual_path_hops

let test_network_series_recorded () =
  let g, net = small_net Metric.Hn_spf in
  Network.run net ~duration_s:45.;
  let lid = (Graph.link g (Link.id_of_int 0)).Link.id in
  let cost = Network.cost_series net lid in
  let util = Network.utilization_series net lid in
  Alcotest.(check int) "4 periods recorded" 4 (Routing_stats.Time_series.length cost);
  Alcotest.(check int) "util too" 4 (Routing_stats.Time_series.length util);
  Routing_stats.Time_series.iter util (fun ~time:_ ~value ->
      Alcotest.(check bool) "utilization sane" true (value >= 0. && value <= 1.01))

let test_network_hop_by_hop_flooding () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let config =
    { (Network.default_config Metric.Hn_spf) with
      Network.seed = 4;
      instant_flooding = false }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:120.;
  let lat = Network.flood_latency_stats net in
  Alcotest.(check bool) "floods happened" true
    (Routing_stats.Welford.count lat > 100);
  (* §3.2's synchrony assumption: "network packet transit times are
     typically much less than a second", so floods finish well inside the
     10-second period.  Satellite hops (250 ms) and 9.6 kb/s tails put the
     worst case in the low seconds. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean flood latency well under 1 s (%.0f ms)"
       (1000. *. Routing_stats.Welford.mean lat))
    true
    (Routing_stats.Welford.mean lat < 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "worst case far inside the period (%.0f ms)"
       (1000. *. Routing_stats.Welford.max_value lat))
    true
    (Routing_stats.Welford.max_value lat < 0.3 *. 10.);
  (* The network still works with per-node views and staggered tables. *)
  Alcotest.(check bool) "still delivering" true
    (Network.delivered_packets net > 10_000);
  Alcotest.(check bool) "losses stay modest" true
    (float_of_int (Network.dropped_packets net)
    < 0.1 *. float_of_int (Network.generated_packets net))

let test_network_reliable_flooding_on_lossy_lines () =
  (* 10% of every transmission is corrupted.  Data packets just die;
     control packets are retransmitted until acknowledged, so routing
     still converges and every node keeps a current view. *)
  let g = Generators.ring 6 in
  let tm = Traffic_matrix.uniform ~nodes:6 ~pair_bps:3000. in
  let config =
    { (Network.default_config Metric.Hn_spf) with
      Network.seed = 9;
      instant_flooding = false;
      line_error_rate = 0.10;
      record_series = false }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:300.;
  let lat = Network.flood_latency_stats net in
  Alcotest.(check bool) "floods still complete" true
    (Routing_stats.Welford.count lat > 50);
  (* Retransmission pushes the tail out but floods still finish far
     inside the period. *)
  Alcotest.(check bool)
    (Printf.sprintf "latency bounded (max %.2f s)"
       (Routing_stats.Welford.max_value lat))
    true
    (Routing_stats.Welford.max_value lat < 9.);
  (* ~10% of data is lost per hop: delivery reflects the error rate, not
     a routing failure. *)
  let delivered = float_of_int (Network.delivered_packets net) in
  let generated = float_of_int (Network.generated_packets net) in
  Alcotest.(check bool)
    (Printf.sprintf "delivery ~ (1-e)^hops (%.2f)" (delivered /. generated))
    true
    (delivered /. generated > 0.75 && delivered /. generated < 0.95)

(* Pins the hop-by-hop DES: D-SPF on the ARPANET, where every node routes
   on its own cost view and repairs its own tree on receipt, with one
   cross-country trunk down at 40 s and back up at 80 s.  A node
   installing a different table on some receipt would show up in these
   counts. *)
let test_network_hop_by_hop_golden () =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create 7) g in
  let config =
    { (Network.default_config Metric.D_spf) with
      Network.seed = 5;
      instant_flooding = false;
      record_series = false }
  in
  let net = Network.create ~config g tm in
  let node name = Option.get (Graph.node_by_name g name) in
  let trunk =
    Option.get (Graph.find_link g ~src:(node "CMU") ~dst:(node "UTAH"))
  in
  let set_trunk up =
    Network.set_link_up net trunk.Link.id up;
    Network.set_link_up net (Graph.reverse g trunk).Link.id up
  in
  Network.run net ~duration_s:40.;
  set_trunk false;
  Network.run net ~duration_s:40.;
  set_trunk true;
  Network.run net ~duration_s:40.;
  Alcotest.(check (list int))
    "generated, delivered, dropped, fresh receipts"
    [ 75610; 47645; 27451; 21168 ]
    [ Network.generated_packets net;
      Network.delivered_packets net;
      Network.dropped_packets net;
      Routing_stats.Welford.count (Network.flood_latency_stats net) ]

(* --- Trace --- *)

module Trace = Routing_sim.Trace
module Json = Routing_obs.Json
module Metrics = Routing_obs.Metrics
module Sink = Routing_obs.Sink
module Telemetry = Routing_obs.Telemetry

(* The JSONL stream is the DES's record of events: every line decodes as
   a [Trace] event, in time order, and its delivery and drop lines
   account for exactly the packets the simulator counted. *)
let test_network_trace_captures_events () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 ~propagation_s:0.002 "B" "C" in
  let g = Builder.build b in
  let tm = Traffic_matrix.uniform ~nodes:3 ~pair_bps:4000. in
  let tele = Telemetry.create ~sink:(Sink.buffer ()) () in
  let config =
    { (Network.default_config Metric.Hn_spf) with
      Network.seed = 11;
      telemetry = Some tele }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:60.;
  Network.set_link_up net (Graph.link g (Link.id_of_int 0)).Link.id false;
  let events =
    String.split_on_char '\n' (Sink.contents (Telemetry.sink tele))
    |> List.filter (fun line -> line <> "")
    |> List.map (fun line ->
           match Result.bind (Json.of_string line) Trace.of_json with
           | Ok e -> e
           | Error m -> Alcotest.failf "undecodable line %S: %s" line m)
  in
  Alcotest.(check bool) "events recorded" true (List.length events > 100);
  let rec ordered = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (ordered events);
  Alcotest.(check bool) "link-down traced" true
    (List.exists
       (fun (_, e) ->
         match e with Trace.Link_state { up = false; _ } -> true | _ -> false)
       events);
  let count p = List.length (List.filter (fun (_, e) -> p e) events) in
  let delivered =
    count (function Trace.Packet_delivered _ -> true | _ -> false)
  in
  Alcotest.(check bool) "deliveries traced" true (delivered > 50);
  Alcotest.(check int) "every delivery traced"
    (Network.delivered_packets net) delivered;
  Alcotest.(check int) "every drop traced" (Network.dropped_packets net)
    (count (function Trace.Packet_dropped _ -> true | _ -> false));
  Alcotest.(check int) "registry counts the stream's deliveries" delivered
    (Metrics.counter_value
       (Metrics.counter (Telemetry.metrics tele) "packets_delivered"))

let test_network_incremental_survives_link_flap () =
  let g = Generators.ring 6 in
  let tm = Traffic_matrix.uniform ~nodes:6 ~pair_bps:2000. in
  let config =
    { (Network.default_config Metric.Hn_spf) with
      Network.seed = 13;
      instant_flooding = false;
      record_series = false }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:60.;
  let l = (Graph.link g (Link.id_of_int 0)).Link.id in
  (* Up/down rebuilds every node's tree from scratch; receipts in between
     repair them in place. *)
  Network.set_link_up net l false;
  Network.run net ~duration_s:60.;
  Network.set_link_up net l true;
  Network.run net ~duration_s:120.;
  Alcotest.(check bool) "still delivering after flap cycle" true
    (Network.delivered_packets net > 2000);
  Alcotest.(check bool) "loss stays low" true
    (float_of_int (Network.dropped_packets net)
    < 0.05 *. float_of_int (Network.generated_packets net))

(* Two parallel T56 trunks between A and B, plus B-C and C-A.  An update
   that crosses the second A-B trunk must be acknowledged over that
   trunk's own reverse and must not be forwarded back over it; getting
   either wrong leaves the sender retransmitting every second until the
   update expires.  Hop-by-hop flooding then costs about what an instant
   flood charges, not dozens of times more. *)
let test_network_parallel_trunks () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "B" "C" in
  let _ = Builder.trunk b Line_type.T56 "C" "A" in
  let g = Builder.build b in
  let tm = Traffic_matrix.uniform ~nodes:3 ~pair_bps:8000. in
  let update_bits instant_flooding =
    let config =
      { (Network.default_config Metric.D_spf) with
        Network.seed = 3;
        instant_flooding;
        record_series = false }
    in
    let net = Network.create ~config g tm in
    Network.run net ~duration_s:300.;
    let i = Network.indicators net in
    i.Measure.overhead_bps *. i.Measure.elapsed_s
  in
  let instant = update_bits true and hop_by_hop = update_bits false in
  Alcotest.(check bool)
    (Printf.sprintf "hop-by-hop update bits %.0f within 1.5x of instant %.0f"
       hop_by_hop instant)
    true
    (instant > 0. && hop_by_hop <= 1.5 *. instant)

let test_network_deterministic () =
  let run () =
    let _, net = small_net Metric.D_spf in
    Network.run net ~duration_s:50.;
    (Network.delivered_packets net, Network.dropped_packets net)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "same seed, same run" a b

let () =
  Alcotest.run "routing_sim"
    [ ( "event_queue",
        [ Alcotest.test_case "time order" `Quick test_event_queue_time_order;
          Alcotest.test_case "fifo ties" `Quick test_event_queue_fifo_ties;
          QCheck_alcotest.to_alcotest prop_event_queue_matches_sorted_model;
          Alcotest.test_case "ties across tiers" `Quick test_event_queue_tier_ties;
          Alcotest.test_case "length counts both tiers" `Quick
            test_event_queue_length_counts_both_tiers;
          Alcotest.test_case "crowded bucket" `Quick test_event_queue_crowded_bucket ] );
      ( "engine",
        [ Alcotest.test_case "clock" `Quick test_engine_clock;
          Alcotest.test_case "horizon" `Quick test_engine_horizon_stops_events;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past ] );
      ("packet", [ QCheck_alcotest.to_alcotest prop_packet_pool_ids ]);
      ( "link_queue",
        [ Alcotest.test_case "fifo transmission" `Quick
            test_link_queue_transmits_in_order;
          Alcotest.test_case "drops when full" `Quick test_link_queue_drops_when_full;
          Alcotest.test_case "line down" `Quick test_link_queue_down_drops_everything;
          Alcotest.test_case "stale completion after flap" `Quick
            test_link_queue_stale_completion_after_flap;
          Alcotest.test_case "priority lane" `Quick test_link_queue_priority_lane;
          Alcotest.test_case "priority never dropped" `Quick
            test_link_queue_priority_not_dropped ] );
      ( "workload",
        [ Alcotest.test_case "poisson rate" `Quick test_workload_poisson_rate;
          Alcotest.test_case "scale" `Quick test_workload_scale;
          Alcotest.test_case "fixed size floor" `Quick
            test_workload_fixed_size_floor ] );
      ( "measure",
        [ Alcotest.test_case "indicators" `Quick test_measure_indicators;
          Alcotest.test_case "percentiles" `Quick test_measure_percentiles;
          Alcotest.test_case "comparison table" `Quick test_measure_comparison_table
        ] );
      ( "network",
        [ Alcotest.test_case "delivers" `Quick test_network_delivers;
          Alcotest.test_case "min-hop static" `Quick test_network_minhop_never_updates;
          Alcotest.test_case "50s reliability floods" `Quick
            test_network_fifty_second_floods;
          Alcotest.test_case "link failure" `Quick test_network_link_failure_reroutes;
          Alcotest.test_case "cut pair min path" `Quick test_network_cut_pair_min_path;
          Alcotest.test_case "min path follows a cut" `Quick
            test_network_min_path_follows_cut;
          Alcotest.test_case "series" `Quick test_network_series_recorded;
          Alcotest.test_case "hop-by-hop flooding" `Slow
            test_network_hop_by_hop_flooding;
          Alcotest.test_case "reliable flooding on lossy lines" `Slow
            test_network_reliable_flooding_on_lossy_lines;
          Alcotest.test_case "hop-by-hop golden" `Quick
            test_network_hop_by_hop_golden;
          Alcotest.test_case "incremental + link flap" `Quick
            test_network_incremental_survives_link_flap;
          Alcotest.test_case "trace captures events" `Quick
            test_network_trace_captures_events;
          Alcotest.test_case "parallel trunks" `Quick test_network_parallel_trunks;
          Alcotest.test_case "deterministic" `Quick test_network_deterministic ] )
    ]
