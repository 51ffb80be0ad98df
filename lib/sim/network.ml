open! Import

type config = {
  metric : Metric.kind;
  buffer_packets : int;
  packet_size : Workload.size;
  seed : int;
  ttl_hops : int;
  record_series : bool;
  instant_flooding : bool;
  line_error_rate : float;
  retransmit_interval_s : float;
  trace_capacity : int;
  domains : int;
  telemetry : Telemetry.t option;
}

let log_src = Logs.Src.create "routing_sim.network" ~doc:"packet-level simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Spf_repair = Routing_spf.Spf_repair

let default_config metric =
  { metric;
    buffer_packets = Link_queue.default_buffer_packets;
    packet_size = Workload.Exponential 600.;
    seed = 42;
    ttl_hops = 64;
    record_series = true;
    instant_flooding = true;
    line_error_rate = 0.;
    retransmit_interval_s = 1.0;
    trace_capacity = 0;
    domains = Domain_pool.default_size ();
    telemetry = None }

(* Telemetry handles, resolved once at creation so the hot paths touch
   plain mutable cells.  The [drops] array is indexed by [reason_index]. *)
type obs_state = {
  tele : Telemetry.t;
  obs_sink : Obs_sink.t;
  drops : Obs_metrics.counter array;
  delivered : Obs_metrics.counter;
  floods : Obs_metrics.counter;
  accepts : Obs_metrics.counter;
  recomputes : Obs_metrics.counter;
  osc_flags : Obs_metrics.counter;
  queue_depth : Obs_metrics.series array;
  cost_hops : Obs_metrics.series array;
      (* flooded cost normalized by the link's idle cost: the paper's
         "reported cost in hops" axis (Figs 5–6) *)
  osc : Obs_oscillation.t;
  spf_refreshes : Obs_metrics.gauge;
  spf_skipped : Obs_metrics.gauge;
  spf_full_sweeps : Obs_metrics.gauge;
  spf_recomputed : Obs_metrics.gauge;
  spf_repaired : Obs_metrics.gauge;
  spf_reused : Obs_metrics.gauge;
  spf_resettled : Obs_metrics.gauge;
}

(* Tiny growable buffer for the per-period expiry sweeps: collect doomed
   keys in one pass over the table, then remove them — no intermediate
   list, and the buffer is reused across periods. *)
type 'a vec = { mutable buf : 'a array; mutable len : int }

let vec_make zero = { buf = Array.make 16 zero; len = 0 }

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let buf = Array.make (2 * v.len) v.buf.(0) in
    Array.blit v.buf 0 buf 0 v.len;
    v.buf <- buf
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

let vec_clear v = v.len <- 0

let reason_index = function
  | Trace.Buffer_full -> 0
  | Trace.Line_down -> 1
  | Trace.Line_error -> 2
  | Trace.No_route -> 3
  | Trace.Ttl -> 4

let make_obs_state tele ~links =
  let m = Telemetry.metrics tele in
  let spf_gauge which =
    Obs_metrics.gauge m ~labels:[ ("counter", which) ] "spf_engine"
  in
  { tele;
    obs_sink = Telemetry.sink tele;
    drops =
      (let arr =
         List.map
           (fun r ->
             Obs_metrics.counter m
               ~labels:[ ("reason", Trace.reason_name r) ]
               "packets_dropped")
           Trace.all_reasons
       in
       Array.of_list arr);
    delivered = Obs_metrics.counter m "packets_delivered";
    floods = Obs_metrics.counter m "updates_flooded";
    accepts = Obs_metrics.counter m "updates_accepted";
    recomputes = Obs_metrics.counter m "tables_recomputed";
    osc_flags = Obs_metrics.counter m "oscillation_flags";
    queue_depth =
      Array.init links (fun i ->
          Obs_metrics.series m
            ~labels:[ ("link", Printf.sprintf "l%d" i) ]
            "queue_depth");
    cost_hops =
      Array.init links (fun i ->
          Obs_metrics.series m
            ~labels:[ ("link", Printf.sprintf "l%d" i) ]
            "link_cost_hops");
    osc = Telemetry.init_oscillation tele ~links;
    spf_refreshes = spf_gauge "refreshes";
    spf_skipped = spf_gauge "skipped";
    spf_full_sweeps = spf_gauge "full_sweeps";
    spf_recomputed = spf_gauge "sources_recomputed";
    spf_repaired = spf_gauge "sources_repaired";
    spf_reused = spf_gauge "sources_reused";
    spf_resettled = spf_gauge "nodes_resettled" }

let count_event o = function
  | Trace.Packet_delivered _ -> Obs_metrics.inc o.delivered
  | Trace.Packet_dropped { reason; _ } ->
    Obs_metrics.inc o.drops.(reason_index reason)
  | Trace.Update_flooded _ -> Obs_metrics.inc o.floods
  | Trace.Update_accepted _ -> Obs_metrics.inc o.accepts
  | Trace.Tables_recomputed _ -> Obs_metrics.inc o.recomputes
  | Trace.Link_state _ -> ()

type t = {
  graph : Graph.t;
  config : config;
  engine : Engine.t;
  metric : Metric.t;
  psns : Psn.t array;
  mutable queues : Link_queue.t array;
  flooders : Flooder.t array;
  mutable workload : Workload.t option;
  measure : Measure.t;
  min_hops : int array array; (* src * dst, hop count on the up topology *)
  link_up : bool array;
  prev_bits : float array; (* per link, snapshot at last period start *)
  cost_series : Time_series.t array;
  util_series : Time_series.t array;
  (* Non-instant flooding: each node's believed costs with the weight
     table and route tree it derives from them, in-flight updates, and
     the latency from origination to each fresh acceptance. *)
  views : int array array; (* node x link; used when not instant_flooding *)
  weights : int array array; (* node x link: [compute_weights] of the view *)
  mutable trees : Spf_tree.t array; (* per node, exact under its weights *)
  repair : Spf_repair.scratch; (* shared by every node's tree repairs *)
  in_flight : (int, Update.t * float) Hashtbl.t;
  mutable next_update_token : int;
  (* Rosen-style per-line reliability: a control packet sent on a link
     stays pending until the far end acknowledges it; a timer retransmits
     it meanwhile.  (link id, token) -> still unacknowledged. *)
  pending_acks : (int * int, unit) Hashtbl.t;
  (* Reused per-period scratch: expiry-sweep buffers and the per-origin
     changed-cost slots (historically a fresh Hashtbl every period). *)
  doomed_tokens : int vec;
  doomed_acks : (int * int) vec;
  changed_costs : (Link.id * int) list array; (* per origin node *)
  changed_origins : int array; (* origins touched, first-touch order *)
  mutable changed_count : int;
  link_rng : Rng.t;
  flood_latency : Welford.t;
  (* Shared SPF engines (instant flooding): per-source route trees on the
     flooded costs, and min-hop trees on the up topology, both refreshed
     by diffing and fanned over the pool. *)
  spf : Spf_engine.t;
  min_spf : Spf_engine.t;
  trace : Trace.t option;
  obs : obs_state option;
  mutable started : bool;
  mutable tables_dirty : bool;
}

(* Every structured event flows through here: into the ring buffer (when
   tracing), the JSONL sink and the labeled counters (when telemetry is
   attached).  With both off this is one branch and no allocation. *)
let trace t make_event =
  match (t.trace, t.obs) with
  | None, None -> ()
  | trace_opt, obs_opt ->
    let time = Engine.now t.engine in
    let event = make_event () in
    Option.iter (fun tr -> Trace.record tr ~time event) trace_opt;
    Option.iter
      (fun o ->
        count_event o event;
        Obs_sink.emit o.obs_sink (fun () -> Trace.to_json ~time event))
      obs_opt

let span t name f =
  match t.obs with
  | None -> f ()
  | Some o -> Obs_span.with_ (Telemetry.spans o.tele) ~name f

let link_enabled t lid = t.link_up.(Link.id_to_int lid)

let recompute_min_hops t =
  let n = Graph.node_count t.graph in
  Spf_engine.refresh t.min_spf ~enabled:(link_enabled t) ~cost:(fun _ -> 1);
  for src = 0 to n - 1 do
    let tree = Spf_engine.tree t.min_spf (Node.of_int src) in
    for dst = 0 to n - 1 do
      t.min_hops.(src).(dst) <-
        (let d = Node.of_int dst in
         if Spf_tree.reached tree d then Spf_tree.hops tree d else max_int)
    done
  done

let view_cost t i lid = t.views.(i).(Link.id_to_int lid)

let install_tables t =
  if t.config.instant_flooding then begin
    (* Every node routes on the same flooded costs: one engine refresh
       serves all tables, reusing provably unaffected trees. *)
    span t "spf_refresh" (fun () ->
        Spf_engine.refresh t.spf ~enabled:(link_enabled t)
          ~cost:(Metric.cost_fn t.metric));
    Array.iteri
      (fun i psn ->
        Psn.install_table psn
          (Routing_table.of_tree (Spf_engine.tree t.spf (Node.of_int i))))
      t.psns
  end
  else begin
    (* Each node routes on its own view.  Trees are built from scratch
       only here (creation, link up/down); receipts repair them. *)
    t.trees <-
      Array.mapi
        (fun i weights ->
          Dijkstra.compute_weights_into ~enabled:(link_enabled t) t.graph
            ~cost:(view_cost t i) weights;
          Dijkstra.compute_flat t.graph ~weights (Node.of_int i))
        t.weights;
    Array.iteri
      (fun i tree -> Psn.install_table t.psns.(i) (Routing_table.of_tree tree))
      t.trees
  end;
  t.tables_dirty <- false

(* Node [i] takes an update's costs into its view and repairs its own
   tree — §2.2's "incremental adjustments", bit-identical to recomputing
   it from scratch on the new view. *)
let apply_update t i costs =
  let weights = t.weights.(i) in
  List.iter (fun (lid, c) -> t.views.(i).(Link.id_to_int lid) <- c) costs;
  let changes =
    List.fold_left
      (fun changes (lid, _) ->
        let k = Link.id_to_int lid in
        let w =
          if link_enabled t lid then
            Dijkstra.link_weight ~cost:(view_cost t i) lid
          else -1
        in
        let old = weights.(k) in
        if w = old then changes
        else begin
          weights.(k) <- w;
          (lid, old, w) :: changes
        end)
      [] costs
  in
  let tree = t.trees.(i) in
  ignore (Spf_repair.repair t.repair t.graph ~tree ~weights ~changes);
  Psn.install_table t.psns.(i) (Routing_table.of_tree tree)

(* Send one in-flight update over a link as a priority control packet and
   keep retransmitting on a timer until the far end acknowledges it. *)
let rec send_control t lid token =
  match Hashtbl.find_opt t.in_flight token with
  | None -> ()
  | Some (u, _) ->
    let link = Graph.link t.graph lid in
    let packet =
      Packet.make ~kind:(Packet.Control token) ~src:link.Link.src
        ~dst:link.Link.dst ~bits:(Update.size_bits u)
        (Engine.now t.engine)
    in
    Measure.record_updates t.measure ~count:0 ~bits:(Update.size_bits u);
    let key = (Link.id_to_int lid, token) in
    Hashtbl.replace t.pending_acks key ();
    Link_queue.enqueue_priority t.queues.(Link.id_to_int lid) packet;
    Engine.schedule t.engine ~after:t.config.retransmit_interval_s (fun () ->
        if Hashtbl.mem t.pending_acks key && t.link_up.(Link.id_to_int lid)
        then send_control t lid token)

and send_ack t lid token =
  (* Acknowledge on the reverse of the line the update arrived over. *)
  let back = Graph.reverse t.graph (Graph.link t.graph lid) in
  if t.link_up.(Link.id_to_int back.Link.id) then begin
    let packet =
      Packet.make ~kind:(Packet.Control_ack token) ~src:back.Link.src
        ~dst:back.Link.dst ~bits:48.
        (Engine.now t.engine)
    in
    Measure.record_updates t.measure ~count:0 ~bits:48.;
    Link_queue.enqueue_priority t.queues.(Link.id_to_int back.Link.id) packet
  end

(* A routing update arrives at a node: accept if fresh, apply the costs to
   this node's view, recompute its table, and forward. *)
and deliver_update t node ~via token =
  match Hashtbl.find_opt t.in_flight token with
  | None -> ()
  | Some (u, originated_s) -> (
    let i = Node.to_int node in
    match Flooder.receive (Psn.flooder t.psns.(i)) ~arrived_on:(Some via) u with
    | Flooder.Duplicate -> ()
    | Flooder.Fresh forward ->
      Welford.add t.flood_latency (Engine.now t.engine -. originated_s);
      trace t (fun () ->
          Trace.Update_accepted
            { at = node;
              origin = u.Update.origin;
              latency_s = Engine.now t.engine -. originated_s });
      apply_update t i u.Update.costs;
      trace t (fun () -> Trace.Tables_recomputed { at = node });
      List.iter (fun lid -> send_control t lid token) forward)

(* Forwarding: deliver locally, or hand to the next hop's transmitter. *)
and handle_arrival t (packet : Packet.t) node =
  match packet.Packet.kind with
  | Packet.Control token -> (
    (* Control packets are consumed and re-issued hop by hop; [src] names
       the tail of the link they just crossed.  Receipt is acknowledged at
       the line level whether or not the update is fresh. *)
    match Graph.find_link t.graph ~src:packet.Packet.src ~dst:node with
    | Some l ->
      send_ack t l.Link.id token;
      deliver_update t node ~via:l.Link.id token
    | None -> ())
  | Packet.Control_ack token -> (
    (* The ack for our transmission on the reverse of the arrival link. *)
    match Graph.find_link t.graph ~src:node ~dst:packet.Packet.src with
    | Some forward ->
      Hashtbl.remove t.pending_acks (Link.id_to_int forward.Link.id, token)
    | None -> ())
  | Packet.Data -> (
    let psn = t.psns.(Node.to_int node) in
    match Psn.route psn packet with
    | `Deliver ->
      let src = Node.to_int packet.Packet.src
      and dst = Node.to_int packet.Packet.dst in
      let delay_s = Packet.age packet ~now:(Engine.now t.engine) in
      Measure.record_delivery t.measure ~delay_s ~bits:packet.Packet.bits
        ~hops:packet.Packet.hops ~min_hops:t.min_hops.(src).(dst);
      trace t (fun () ->
          Trace.Packet_delivered
            { src = packet.Packet.src;
              dst = packet.Packet.dst;
              delay_s;
              hops = packet.Packet.hops })
    | `No_route ->
      Measure.record_drop t.measure;
      trace t (fun () ->
          Trace.Packet_dropped
            { at = node; src = packet.Packet.src; dst = packet.Packet.dst;
              reason = Trace.No_route })
    | `Forward link ->
      if packet.Packet.hops >= t.config.ttl_hops then begin
        Measure.record_drop t.measure;
        trace t (fun () ->
            Trace.Packet_dropped
              { at = node; src = packet.Packet.src; dst = packet.Packet.dst;
                reason = Trace.Ttl })
      end
      else Link_queue.enqueue t.queues.(Link.id_to_int link.Link.id) packet)

and make_queue t (link : Link.t) =
  Link_queue.create ~buffer_packets:t.config.buffer_packets
    ~error_rate:t.config.line_error_rate ~rng:t.link_rng t.engine link
    ~on_arrival:(fun packet -> handle_arrival t packet link.Link.dst)
    ~on_measured:(fun ~delay_s ->
      let psn = t.psns.(Node.to_int link.Link.src) in
      Measurement.record_packet (Psn.measurement psn link.Link.id) ~delay_s)
    ~on_drop:(fun reason (packet : Packet.t) ->
      match packet.Packet.kind with
      | Packet.Data ->
        Measure.record_drop t.measure;
        trace t (fun () ->
            Trace.Packet_dropped
              { at = link.Link.src;
                src = packet.Packet.src;
                dst = packet.Packet.dst;
                reason =
                  (match reason with
                  | Link_queue.Buffer_full -> Trace.Buffer_full
                  | Link_queue.Line_down -> Trace.Line_down
                  | Link_queue.Corrupted -> Trace.Line_error) })
      | Packet.Control _ | Packet.Control_ack _ ->
        (* Lost to a line error or a downed line; the per-line
           retransmission timer recovers Control packets, and a
           retransmitted Control re-triggers the ack. *)
        ())

(* End-of-period processing: read every measurement, run the metric,
   flood significant changes, recompute tables if anything changed. *)
let routing_period t =
  span t "routing_period" @@ fun () ->
  let period = Units.routing_period_s in
  let now = Engine.now t.engine in
  (* Garbage-collect long-finished floods: anything older than 100 s has
     either been delivered everywhere or superseded by newer sequence
     numbers (the 50-second reliability refloods guarantee the latter). *)
  vec_clear t.doomed_tokens;
  Hashtbl.iter
    (fun token (_, originated_s) ->
      if now -. originated_s > 100. then vec_push t.doomed_tokens token)
    t.in_flight;
  for k = 0 to t.doomed_tokens.len - 1 do
    Hashtbl.remove t.in_flight t.doomed_tokens.buf.(k)
  done;
  vec_clear t.doomed_acks;
  Hashtbl.iter
    (fun ((_, token) as key) () ->
      if not (Hashtbl.mem t.in_flight token) then vec_push t.doomed_acks key)
    t.pending_acks;
  for k = 0 to t.doomed_acks.len - 1 do
    Hashtbl.remove t.pending_acks t.doomed_acks.buf.(k)
  done;
  Array.iter
    (fun psn ->
      List.iter
        (fun ((link : Link.t), m) ->
          if t.link_up.(Link.id_to_int link.Link.id) then begin
            let avg = Measurement.finish_period m in
            match
              Metric.period_update t.metric link.Link.id ~measured_delay_s:avg
            with
            | Some cost ->
              let origin = Node.to_int link.Link.src in
              if t.changed_costs.(origin) = [] then begin
                t.changed_origins.(t.changed_count) <- origin;
                t.changed_count <- t.changed_count + 1
              end;
              t.changed_costs.(origin) <-
                (link.Link.id, cost) :: t.changed_costs.(origin)
            | None -> ()
          end)
        (Psn.out_measurements psn))
    t.psns;
  (* Flood one update per origin that had significant changes. *)
  if t.changed_count > 0 then
    Log.debug (fun m ->
        m "t=%.0fs: %d PSNs flooding updates" now t.changed_count);
  span t "flood" (fun () ->
  for k = 0 to t.changed_count - 1 do
      let origin = t.changed_origins.(k) in
      let costs = t.changed_costs.(origin) in
      t.changed_costs.(origin) <- [];
      trace t (fun () ->
          Trace.Update_flooded
            { origin = Node.of_int origin; links = List.length costs });
      if t.config.instant_flooding then begin
        let update = Flooder.originate t.flooders.(origin) ~costs in
        let outcome = Broadcast.flood t.graph t.flooders update in
        Measure.record_updates t.measure ~count:1 ~bits:outcome.Broadcast.bits;
        t.tables_dirty <- true
      end
      else begin
        (* Hop-by-hop propagation on the priority lanes. *)
        let update = Flooder.originate t.flooders.(origin) ~costs in
        let token = t.next_update_token in
        t.next_update_token <- token + 1;
        Hashtbl.replace t.in_flight token (update, Engine.now t.engine);
        Measure.record_updates t.measure ~count:1 ~bits:0.;
        apply_update t origin costs;
        List.iter
          (fun (l : Link.t) ->
            if t.link_up.(Link.id_to_int l.Link.id) then
              send_control t l.Link.id token)
          (Graph.out_links t.graph (Node.of_int origin))
      end
  done);
  t.changed_count <- 0;
  if t.tables_dirty then install_tables t;
  (* Per-period series. *)
  if t.config.record_series then
    Array.iteri
      (fun i q ->
        let bits = Link_queue.transmitted_bits q in
        let cap = Link.capacity_bps (Link_queue.link q) in
        Time_series.record t.util_series.(i) ~time:now
          ((bits -. t.prev_bits.(i)) /. (cap *. period));
        t.prev_bits.(i) <- bits;
        Time_series.record t.cost_series.(i) ~time:now
          (float_of_int (Metric.cost t.metric (Link.id_of_int i))))
      t.queues;
  (* Telemetry per-period: queue depths, oscillation detection over the
     flooded costs, and the SPF engine counters kept current. *)
  match t.obs with
  | None -> ()
  | Some o ->
    let on_flag ~link ~time ~flips =
      Obs_metrics.inc o.osc_flags;
      Obs_sink.emit o.obs_sink (fun () ->
          Obs_json.Obj
            [ ("t", Obs_json.Float time);
              ("ev", Obs_json.String "oscillation");
              ("link", Obs_json.Int link);
              ("flips", Obs_json.Int flips) ])
    in
    Array.iteri
      (fun i q ->
        let lid = Link.id_of_int i in
        let cost = Metric.cost t.metric lid in
        let idle = Metric.idle_cost t.config.metric (Graph.link t.graph lid) in
        Obs_metrics.sample o.queue_depth.(i) ~time:now
          (float_of_int (Link_queue.queue_length q));
        Obs_metrics.sample o.cost_hops.(i) ~time:now
          (float_of_int cost /. float_of_int (max 1 idle));
        Obs_oscillation.observe ~on_flag o.osc ~link:i ~time:now ~cost)
      t.queues;
    let s = Spf_engine.stats t.spf in
    Obs_metrics.set o.spf_refreshes (float_of_int s.Spf_engine.refreshes);
    Obs_metrics.set o.spf_skipped (float_of_int s.Spf_engine.skipped);
    Obs_metrics.set o.spf_full_sweeps (float_of_int s.Spf_engine.full_sweeps);
    Obs_metrics.set o.spf_recomputed
      (float_of_int s.Spf_engine.sources_recomputed);
    Obs_metrics.set o.spf_repaired
      (float_of_int s.Spf_engine.sources_repaired);
    Obs_metrics.set o.spf_reused (float_of_int s.Spf_engine.sources_reused);
    Obs_metrics.set o.spf_resettled
      (float_of_int s.Spf_engine.nodes_resettled)

let rec schedule_periods t =
  Engine.schedule t.engine ~after:Units.routing_period_s (fun () ->
      routing_period t;
      schedule_periods t)

let create ?config graph tm =
  let config = Option.value config ~default:(default_config Metric.Hn_spf) in
  let n = Graph.node_count graph in
  let nl = Graph.link_count graph in
  let engine = Engine.create () in
  let rng = Rng.create config.seed in
  let metric = Metric.create config.metric graph in
  let psns = Array.init n (fun i -> Psn.create graph (Node.of_int i)) in
  let pool =
    if config.domains > 1 then Some (Domain_pool.create config.domains)
    else None
  in
  (* The telemetry bundle's tracer flight-records the SPF engines and
     the pool's worker domains, as in {!Flow_sim}. *)
  let tracer =
    match config.telemetry with
    | Some tele -> Telemetry.tracer tele
    | None -> Tracer.null
  in
  if Tracer.enabled tracer then
    Option.iter
      (fun p -> Domain_pool.set_probe p (Some (Tracer.pool_probe tracer)))
      pool;
  let t =
    { graph;
      config;
      engine;
      metric;
      psns;
      queues = [||];
      flooders = Array.map Psn.flooder psns;
      workload = None;
      measure = Measure.create ~nodes:n;
      min_hops = Array.init n (fun _ -> Array.make n max_int);
      link_up = Array.make nl true;
      prev_bits = Array.make nl 0.;
      views =
        Array.init (if config.instant_flooding then 0 else n) (fun _ ->
            Array.init nl (fun i ->
                Metric.cost metric (Link.id_of_int i)));
      weights =
        Array.init (if config.instant_flooding then 0 else n) (fun _ ->
            Array.make nl (-1));
      trees = [||];
      repair = Spf_repair.scratch ();
      in_flight = Hashtbl.create 64;
      next_update_token = 0;
      pending_acks = Hashtbl.create 64;
      doomed_tokens = vec_make 0;
      doomed_acks = vec_make (0, 0);
      changed_costs = Array.make n [];
      changed_origins = Array.make n 0;
      changed_count = 0;
      link_rng = Rng.create (config.seed lxor 0x5F5F5F);
      flood_latency = Welford.create ();
      spf = Spf_engine.create ?pool ~tracer graph;
      min_spf = Spf_engine.create ?pool ~tracer graph;
      trace =
        (if config.trace_capacity > 0 then
           Some (Trace.create ~capacity:config.trace_capacity)
         else None);
      obs = Option.map (fun tele -> make_obs_state tele ~links:nl)
          config.telemetry;
      cost_series =
        Array.init nl (fun i -> Time_series.create (Printf.sprintf "cost:l%d" i));
      util_series =
        Array.init nl (fun i -> Time_series.create (Printf.sprintf "util:l%d" i));
      started = false;
      tables_dirty = true }
  in
  t.queues <-
    Array.init nl (fun i -> make_queue t (Graph.link graph (Link.id_of_int i)));
  (* Expose the per-link series the simulator already keeps through the
     registry, so a metrics snapshot carries Figs 5–8's raw series without
     recording anything twice. *)
  (match t.obs with
  | None -> ()
  | Some o ->
    let m = Telemetry.metrics o.tele in
    let link_label i = [ ("link", Printf.sprintf "l%d" i) ] in
    Array.iteri
      (fun i s -> Obs_metrics.adopt_series m ~labels:(link_label i) "link_cost" s)
      t.cost_series;
    Array.iteri
      (fun i s ->
        Obs_metrics.adopt_series m ~labels:(link_label i) "link_utilization" s)
      t.util_series);
  t.workload <-
    Some
      (Workload.create ~size:config.packet_size rng engine tm
         ~inject:(fun packet -> handle_arrival t packet packet.Packet.src));
  recompute_min_hops t;
  install_tables t;
  t

let graph t = t.graph

let metric t = t.metric

let engine t = t.engine

let run t ~duration_s =
  if not t.started then begin
    t.started <- true;
    Option.iter Workload.start t.workload;
    schedule_periods t
  end;
  Engine.run_until t.engine (Engine.now t.engine +. duration_s)

let indicators t =
  Measure.indicators t.measure ~elapsed_s:(Float.max 1e-9 (Engine.now t.engine))

let reset_measurements t = Measure.reset t.measure

let set_link_up t lid up =
  let i = Link.id_to_int lid in
  if t.link_up.(i) <> up then begin
    t.link_up.(i) <- up;
    trace t (fun () -> Trace.Link_state { link = lid; up });
    Log.info (fun m ->
        m "t=%.0fs: link %a %s" (Engine.now t.engine) Link.pp
          (Graph.link t.graph lid)
          (if up then "up (easing in)" else "down"));
    if not up then begin
      (* Updates pending on a dead line will never be acknowledged. *)
      vec_clear t.doomed_acks;
      Hashtbl.iter
        (fun ((l, _) as key) () -> if l = i then vec_push t.doomed_acks key)
        t.pending_acks;
      for k = 0 to t.doomed_acks.len - 1 do
        Hashtbl.remove t.pending_acks t.doomed_acks.buf.(k)
      done
    end;
    Link_queue.set_up t.queues.(i) up;
    if up then Metric.link_up t.metric lid;
    recompute_min_hops t;
    install_tables t
  end

let cost_series t lid = t.cost_series.(Link.id_to_int lid)

let utilization_series t lid = t.util_series.(Link.id_to_int lid)

let median_delay_ms t = Measure.median_delay_ms t.measure

let p95_delay_ms t = Measure.p95_delay_ms t.measure

let delivered_packets t = Measure.delivered_packets t.measure

let dropped_packets t = Measure.dropped_packets t.measure

let flood_latency_stats t = t.flood_latency

let trace_events t =
  match t.trace with None -> [] | Some tr -> Trace.events tr

let dump_trace t =
  match t.trace with None -> "" | Some tr -> Trace.dump t.graph tr

let generated_packets t =
  match t.workload with
  | Some w -> Workload.generated_packets w
  | None -> 0

let spf_stats t = Spf_engine.stats t.spf

let telemetry t = t.config.telemetry
