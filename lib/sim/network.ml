open! Import

type config = {
  metric : Metric.kind;
  seed : int;
  record_series : bool;
  instant_flooding : bool;
  line_error_rate : float;
  domains : int;
  telemetry : Telemetry.t option;
}

(* Discard packets that have crossed this many hops (a routing loop). *)
let ttl_hops = 64

(* Control-packet retransmission timer (Rosen's updating protocol). *)
let retransmit_interval_s = 1.0

(* Floods older than this have either been delivered everywhere or been
   superseded by newer sequence numbers (the 50-second reliability
   refloods guarantee the latter), so their tokens are retired. *)
let flood_lifetime_s = 100.

let log_src = Logs.Src.create "routing_sim.network" ~doc:"packet-level simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Spf_repair = Routing_spf.Spf_repair
module Sequence = Routing_flooding.Sequence

let default_config metric =
  { metric;
    seed = 42;
    record_series = true;
    instant_flooding = true;
    line_error_rate = 0.;
    domains = Domain_pool.resolve ();
    telemetry = None }

(* Telemetry handles, resolved once at creation so the hot paths touch
   plain mutable cells.  The [drops] array is indexed by [reason_index].
   The flip detector exists only here: the DES's indicators report no
   link flips, so without a bundle nothing would read it. *)
type obs_state = {
  hooks : Telemetry_hooks.t;
  osc : Obs_oscillation.t;
  on_flag : (link:int -> tick:int -> flips:int -> unit) option;
  obs_sink : Obs_sink.t;
  drops : Obs_metrics.counter array;
  delivered : Obs_metrics.counter;
  floods : Obs_metrics.counter;
  accepts : Obs_metrics.counter;
  recomputes : Obs_metrics.counter;
  queue_depth : Obs_metrics.series array;
}

let reason_index = function
  | Trace.Buffer_full -> 0
  | Trace.Line_down -> 1
  | Trace.Line_error -> 2
  | Trace.No_route -> 3
  | Trace.Ttl -> 4

let make_obs_state tele ~links =
  let m = Telemetry.metrics tele in
  let osc =
    Obs_oscillation.create ~max_flips:(Telemetry.osc_max_flips tele) ~links ()
  in
  let hooks = Telemetry_hooks.attach tele ~links ~osc in
  { hooks;
    osc;
    on_flag = Some (Telemetry_hooks.on_flag hooks);
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
    queue_depth =
      Array.init links (fun i ->
          Obs_metrics.series m ~labels:(Telemetry_hooks.link_label i)
            "queue_depth") }

let count_event o = function
  | Trace.Packet_delivered _ -> Obs_metrics.inc o.delivered
  | Trace.Packet_dropped { reason; _ } ->
    Obs_metrics.inc o.drops.(reason_index reason)
  | Trace.Update_flooded _ -> Obs_metrics.inc o.floods
  | Trace.Update_accepted _ -> Obs_metrics.inc o.accepts
  | Trace.Tables_recomputed _ -> Obs_metrics.inc o.recomputes
  | Trace.Link_state _ -> ()

(* A line's transmitter, wrapped so arrays of them are manifestly not
   float arrays: indexing an array of an abstract type compiles to the
   generic access, which would box if the elements were floats. *)
type line = { queue : Link_queue.t }

type t = {
  graph : Graph.t;
  config : config;
  engine : Engine.t;
  clock : Engine.clock;
  metric : Metric.t;
  next_hops : int array array;
      (* node x destination: each PSN's forwarding column, the link id to
         forward on or -1 for none (and for the node itself), rewritten in
         place from the node's route tree ({!Spf_tree.next_hops_into}) *)
  pool : Packet.pool;
  mutable lines : line array; (* per link *)
  measurements : Measurement.t array; (* per link: its 10-s delay window *)
  link_delay : float array; (* per link: the last window's average delay *)
  link_src : int array; (* per link: tail node *)
  link_dst : int array; (* per link: head node *)
  link_rev : int array; (* per link: the paired reverse link *)
  flooders : Flooder.t array; (* hop-by-hop flooding's protocol state *)
  flood_tx : int array;
      (* per origin: transmissions of one instant flood
         ({!Broadcast.instant_transmissions}) *)
  mutable workload : Workload.t option;
  measure : Measure.t;
  min_hops : int array;
      (* node x node hops over the up links, row-major; -1 = none
         ({!Graph_analysis.hop_counts_into}) *)
  link_up : bool array;
  prev_bits : float array; (* per link, snapshot at last period start *)
  cost_series : Time_series.t array;
  util_series : Time_series.t array;
  (* Non-instant flooding: each node's believed costs with the weight
     table and route tree it derives from them, in-flight updates, and
     the latency from origination to each fresh acceptance. *)
  views : int array array; (* node x link; used when not instant_flooding *)
  view_costs : (Link.id -> int) array; (* per node: reads its view *)
  weights : int array array; (* node x link: [compute_weights] of the view *)
  mutable trees : Spf_tree.t array; (* per node, exact under its weights *)
  repair : Spf_repair.scratch; (* shared by every node's tree repairs *)
  changes : Spf_repair.changes; (* one receipt's weight changes, reused *)
  (* In-flight updates by token.  Tokens are issued in origination order
     and retire in that order, so the live ones are the range
     [oldest_token, next_update_token), kept in a ring indexed by
     [token land (capacity - 1)], sized at creation for the most tokens
     that can be live at once ([flight_capacity]), and doubled should
     every slot be live all the same. *)
  mutable flights : Update.t array;
  mutable flight_originated : float array;
  mutable flight_bits : float array; (* each update's wire size *)
  mutable oldest_token : int;
  mutable next_update_token : int;
  (* Rosen-style per-line reliability: a control packet sent on a link
     stays pending until the far end acknowledges it; a timer retransmits
     it meanwhile.  Flat (ring slot x link) table, one byte each,
     nonzero while unacknowledged. *)
  mutable pending : Bytes.t;
  chg_ids : int array; (* flooded links, grouped by origin, from the metric *)
  chg_costs : int array;
  link_rng : Rng.t;
  flood_latency : Welford.t;
  (* The shared SPF engine (instant flooding): per-source route trees on
     the flooded costs, refreshed by diffing and fanned over the pool. *)
  spf : Spf_engine.t;
  mutable period : int; (* routing periods run: the flip detector's tick *)
  (* The period's stages, into the bundle's tracer and profile. *)
  st_period : Obs_span.stage;
  st_refresh : Obs_span.stage;
  st_flood : Obs_span.stage;
  obs : obs_state option;
  mutable started : bool;
  mutable tables_dirty : bool;
}

(* Every structured event flows through here, into the labeled counters
   and the JSONL sink.  Call sites test [tracing] first: the thunk is
   built before [trace] runs, so an unguarded call would allocate it
   even with no telemetry attached. *)
let trace t make_event =
  match t.obs with
  | None -> ()
  | Some o ->
    let time = Engine.now t.engine in
    let event = make_event () in
    count_event o event;
    Obs_sink.emit o.obs_sink (fun () -> Trace.to_json ~time event)

let[@inline] tracing t = Option.is_some t.obs

let link_enabled t lid = t.link_up.(Link.id_to_int lid)

let install_tables t =
  if t.config.instant_flooding then begin
    (* Every node routes on the same flooded costs: one engine refresh
       serves all tables, reusing provably unaffected trees. *)
    Obs_span.enter t.st_refresh;
    Spf_engine.refresh t.spf ~enabled:(link_enabled t)
      ~cost:(Metric.cost_fn t.metric);
    Obs_span.leave t.st_refresh;
    for i = 0 to Array.length t.next_hops - 1 do
      Spf_tree.next_hops_into (Spf_engine.tree t.spf (Node.of_int i))
        t.next_hops.(i)
    done
  end
  else begin
    (* Each node routes on its own view.  Trees are built from scratch
       only here (creation, link up/down); receipts repair them. *)
    t.trees <-
      Array.mapi
        (fun i weights ->
          Dijkstra.compute_weights_into ~enabled:(link_enabled t) t.graph
            ~cost:t.view_costs.(i) weights;
          Dijkstra.compute_flat t.graph ~weights (Node.of_int i))
        t.weights;
    Array.iteri (fun i tree -> Spf_tree.next_hops_into tree t.next_hops.(i))
      t.trees
  end;
  t.tables_dirty <- false

(* Take one update's costs into node [i]'s view and diff them into its
   weight table ([cost] reads the view), collecting the changes for its
   repair.  A recursive walk with the node's prebuilt view reader, so a
   receipt builds no closure. *)
let rec note_changes t i ~cost weights = function
  | [] -> ()
  | (lid, c) :: rest ->
    let k = Link.id_to_int lid in
    t.views.(i).(k) <- c;
    let w = if link_enabled t lid then Dijkstra.link_weight ~cost lid else -1 in
    let old = weights.(k) in
    if w <> old then begin
      weights.(k) <- w;
      Spf_repair.add_change t.changes lid ~old_w:old ~new_w:w
    end;
    note_changes t i ~cost weights rest

(* Node [i] takes an update's costs into its view, repairs its own tree
   — §2.2's "incremental adjustments", bit-identical to recomputing it
   from scratch on the new view — and, when the repair wrote the tree,
   refreshes its forwarding column from it in place.  A repair that
   wrote nothing left the tree, and so the column, as they were. *)
let apply_update t i costs =
  let weights = t.weights.(i) in
  Spf_repair.clear_changes t.changes;
  note_changes t i ~cost:t.view_costs.(i) weights costs;
  let tree = t.trees.(i) in
  ignore
    (Spf_repair.repair t.repair t.graph ~tree ~weights ~changes:t.changes);
  if Spf_repair.wrote_tree t.repair then
    Spf_tree.next_hops_into tree t.next_hops.(i)

(* --- In-flight updates and pending acknowledgements --- *)

let flight_slot t token = token land (Array.length t.flights - 1)

let in_flight t token = token >= t.oldest_token && token < t.next_update_token

let pending_index t token lid =
  (flight_slot t token * Array.length t.link_up) + lid

let is_pending t token lid =
  Bytes.get t.pending (pending_index t token lid) <> '\000'

let set_pending t token lid flag =
  Bytes.set t.pending (pending_index t token lid)
    (if flag then '\001' else '\000')

(* The most tokens live at once.  A node floods at most once per routing
   period, always at a period start, and [expire_flights] retires a
   token at the first period start more than [flood_lifetime_s] after
   its own, so a token is live through at most ⌈lifetime / period⌉ + 1
   period starts.  Instant flooding opens no flight at all. *)
let flight_capacity ~instant_flooding ~nodes =
  if instant_flooding then 1
  else begin
    let starts =
      int_of_float (Float.ceil (flood_lifetime_s /. Units.routing_period_s)) + 1
    in
    let rec pow2 k = if k >= nodes * starts then k else pow2 (2 * k) in
    pow2 1
  end

(* Out of line: only a flood backlog larger than any before reaches
   here.  Live tokens move to their slots under the doubled mask. *)
let[@inline never] grow_flights t =
  let cap = Array.length t.flights in
  let cap' = 2 * cap in
  let nl = Array.length t.link_up in
  let flights = Array.make cap' t.flights.(0) in
  let originated = Array.make cap' 0. in
  let bits = Array.make cap' 0. in
  let pending = Bytes.make (cap' * nl) '\000' in
  for token = t.oldest_token to t.next_update_token - 1 do
    let s = token land (cap - 1) and s' = token land (cap' - 1) in
    flights.(s') <- t.flights.(s);
    originated.(s') <- t.flight_originated.(s);
    bits.(s') <- t.flight_bits.(s);
    Bytes.blit t.pending (s * nl) pending (s' * nl) nl
  done;
  t.flights <- flights;
  t.flight_originated <- originated;
  t.flight_bits <- bits;
  t.pending <- pending

let open_flight t update =
  if t.next_update_token - t.oldest_token = Array.length t.flights then
    grow_flights t;
  let token = t.next_update_token in
  t.next_update_token <- token + 1;
  let s = flight_slot t token in
  t.flights.(s) <- update;
  t.flight_originated.(s) <- t.clock.Engine.now;
  t.flight_bits.(s) <- Update.size_bits update;
  token

(* Retire floods past their lifetime, with their pending acks.  Tokens
   are issued at nondecreasing times, so the expired ones are a prefix
   of the live range. *)
let expire_flights t ~now =
  let nl = Array.length t.link_up in
  let continue_ = ref true in
  while !continue_ && t.oldest_token < t.next_update_token do
    let s = flight_slot t t.oldest_token in
    if now -. t.flight_originated.(s) > flood_lifetime_s then begin
      Bytes.fill t.pending (s * nl) nl '\000';
      t.oldest_token <- t.oldest_token + 1
    end
    else continue_ := false
  done

(* --- Forwarding --- *)

(* [deliver] and [drop_at] stay out of line: a delivery boxes its delay
   and size on the way into [Measure], and tracing builds a thunk, which
   must not land inside [forward], the allocation-free hot path. *)
let[@inline never] deliver t p =
  let pool = t.pool in
  let src = Packet.src pool p and dst = Packet.dst pool p in
  let hops = Packet.hops pool p in
  let delay_s = t.clock.Engine.now -. (Packet.created_column pool).(p) in
  (* A pair a cut disconnected after this packet passed it has no min-hop
     path: the packet counts its actual hops, as in [Flow_sim]. *)
  let mh = t.min_hops.((src * Graph.node_count t.graph) + dst) in
  let mh = if mh >= 0 then mh else hops in
  Measure.record_delivery t.measure ~delay_s
    ~bits:(Packet.bits_column pool).(p)
    ~hops ~min_hops:mh;
  if tracing t then
    trace t (fun () ->
        Trace.Packet_delivered
          { src = Node.of_int src; dst = Node.of_int dst; delay_s; hops });
  Packet.free pool p

(* Trace a dropped data packet, before its id is freed: by [drop_at] at
   a node, by the link queue on a line. *)
let[@inline never] trace_drop t ~at p reason =
  let src = Packet.src t.pool p and dst = Packet.dst t.pool p in
  trace t (fun () ->
      Trace.Packet_dropped
        { at = Node.of_int at; src = Node.of_int src; dst = Node.of_int dst;
          reason })

let[@inline never] drop_at t node p reason =
  Measure.record_drop t.measure;
  if tracing t then trace_drop t ~at:node p reason;
  Packet.free t.pool p

(* A data packet at [node]: deliver it, or hand it to the next hop's
   transmitter.  One column read picks the link. *)
let forward t node p =
  let dst = Packet.dst t.pool p in
  if dst = node then deliver t p
  else begin
    let l = t.next_hops.(node).(dst) in
    if l < 0 then drop_at t node p Trace.No_route
    else if Packet.hops t.pool p >= ttl_hops then drop_at t node p Trace.Ttl
    else Link_queue.enqueue t.lines.(l).queue p
  end
[@@hot_path]

(* --- Hop-by-hop flooding --- *)

(* Send one in-flight update over a link as a priority control packet and
   keep retransmitting on a timer until the far end acknowledges it. *)
let send_control t lid token =
  if in_flight t token then begin
    let bits = t.flight_bits.(flight_slot t token) in
    let packet =
      Packet.alloc t.pool ~kind:Packet.control ~src:t.link_src.(lid)
        ~dst:t.link_dst.(lid) ~token ~bits
    in
    Measure.record_updates t.measure ~count:0 ~bits;
    set_pending t token lid true;
    Link_queue.enqueue_priority t.lines.(lid).queue packet;
    Engine.schedule t.engine ~after:retransmit_interval_s
      ~kind:Engine.retransmit ~a:lid ~b:token
  end

let retransmit t lid token =
  if
    in_flight t token
    && is_pending t token lid
    && t.link_up.(lid)
  then send_control t lid token

(* Acknowledge on the reverse of the line the update arrived over. *)
let send_ack t lid token =
  let back = t.link_rev.(lid) in
  if t.link_up.(back) then begin
    let packet =
      Packet.alloc t.pool ~kind:Packet.ack ~src:t.link_src.(back)
        ~dst:t.link_dst.(back) ~token ~bits:48.
    in
    Measure.record_updates t.measure ~count:0 ~bits:48.;
    Link_queue.enqueue_priority t.lines.(back).queue packet
  end

(* A routing update arrives at a node over link [via]: accept if fresh,
   apply the costs to this node's view, repair its tree, and forward on
   every other line — all but the reverse of [via]. *)
let deliver_update t node ~via token =
  if in_flight t token then begin
    let s = flight_slot t token in
    let u = t.flights.(s) in
    if Flooder.accept t.flooders.(node) u then begin
      let originated_s = t.flight_originated.(s) in
      Welford.add t.flood_latency (t.clock.Engine.now -. originated_s);
      if tracing t then
        trace t (fun () ->
            Trace.Update_accepted
              { at = Node.of_int node;
                origin = u.Update.origin;
                latency_s = Engine.now t.engine -. originated_s });
      apply_update t node u.Update.costs;
      if tracing t then
        trace t (fun () -> Trace.Tables_recomputed { at = Node.of_int node });
      let off = Graph.csr_out_off t.graph in
      let ids = Graph.csr_out_link_ids t.graph in
      for k = off.(node) to off.(node + 1) - 1 do
        let l = ids.(k) in
        if t.link_rev.(l) <> via then send_control t l token
      done
    end
  end

(* A packet comes off link [lid].  Control packets are consumed and
   re-issued hop by hop, and their receipt is acknowledged at the line
   level whether or not the update is fresh; an acknowledgement crossed
   the reverse of the line our transmission went out on.  The link
   travels with the arrival event, so parallel trunks between the same
   two nodes stay apart. *)
let arrive t lid p =
  let node = t.link_dst.(lid) in
  let kind = Packet.kind t.pool p in
  if kind = Packet.data then forward t node p
  else begin
    let token = Packet.token t.pool p in
    Packet.free t.pool p;
    if kind = Packet.control then begin
      send_ack t lid token;
      deliver_update t node ~via:lid token
    end
    else if in_flight t token then
      set_pending t token t.link_rev.(lid) false
  end

let make_queue t (link : Link.t) =
  let at = Node.to_int link.Link.src in
  Link_queue.create ~error_rate:t.config.line_error_rate ~rng:t.link_rng
    t.engine t.pool link
    t.measurements.(Link.id_to_int link.Link.id)
    ~on_drop:(fun reason p ->
      (* Control packets lost to a line error or a downed line are
         recovered by the per-line retransmission timer, and a
         retransmitted control packet re-triggers the ack. *)
      if Packet.kind t.pool p = Packet.data then begin
        Measure.record_drop t.measure;
        if tracing t then
          trace_drop t ~at p
            (match reason with
            | Link_queue.Buffer_full -> Trace.Buffer_full
            | Link_queue.Line_down -> Trace.Line_down
            | Link_queue.Corrupted -> Trace.Line_error)
      end)

(* The (link, cost) payload of the hop-by-hop update reporting flooded
   entries [k, stop), built back to front so it lists its links in
   ascending order.  Toplevel, so a flood builds no closure. *)
let rec run_costs t k stop acc =
  if stop = k then acc
  else
    let j = stop - 1 in
    run_costs t k j ((Link.id_of_int t.chg_ids.(j), t.chg_costs.(j)) :: acc)

(* Originate one origin's update hop by hop on the priority lanes: the
   origin takes its own costs first, then sends on every up line. *)
let flood_hop_by_hop t origin costs =
  let token = open_flight t (Flooder.originate t.flooders.(origin) ~costs) in
  Measure.record_updates t.measure ~count:1 ~bits:0.;
  apply_update t origin costs;
  let off = Graph.csr_out_off t.graph in
  let ids = Graph.csr_out_link_ids t.graph in
  for j = off.(origin) to off.(origin + 1) - 1 do
    let l = ids.(j) in
    if t.link_up.(l) then send_control t l token
  done

(* End-of-period processing: close every up link's measurement window,
   run the metric over the delays in one batch pass, flood one update
   per origin run of the significant changes (in ascending origin
   order), and recompute tables if anything changed. *)
let routing_period t =
  Obs_span.enter t.st_period;
  let period = Units.routing_period_s in
  let now = Engine.now t.engine in
  t.period <- t.period + 1;
  expire_flights t ~now;
  for l = 0 to Array.length t.link_up - 1 do
    if t.link_up.(l) then
      t.link_delay.(l) <- Measurement.finish_period t.measurements.(l)
  done;
  let nch =
    Metric.period_update_all t.metric ~up:t.link_up ~link_delay_s:t.link_delay
      ~changed_ids:t.chg_ids ~changed_costs:t.chg_costs
  in
  Obs_span.enter t.st_flood;
  let floods = ref 0 in
  let k = ref 0 in
  while !k < nch do
    let start = !k in
    let stop =
      Update.run_end ~link_src:t.link_src ~changed_ids:t.chg_ids ~count:nch
        start
    in
    let origin = t.link_src.(t.chg_ids.(start)) in
    let links = stop - start in
    if tracing t then
      trace t (fun () ->
          Trace.Update_flooded { origin = Node.of_int origin; links });
    if not t.config.instant_flooding then
      flood_hop_by_hop t origin (run_costs t start stop []);
    incr floods;
    k := stop
  done;
  if t.config.instant_flooding && nch > 0 then begin
    (* Every copy is fresh, so the floods' transmissions are the
       topology's count; no walk needed. *)
    Measure.record_updates t.measure ~count:!floods
      ~bits:
        (float_of_int
           (Broadcast.instant_bits t.flood_tx ~link_src:t.link_src
              ~changed_ids:t.chg_ids ~count:nch));
    t.tables_dirty <- true
  end;
  Obs_span.leave t.st_flood;
  (* Read out first: a ref the log closure captured would be boxed every
     period. *)
  let floods = !floods in
  if floods > 0 then
    Log.debug (fun m -> m "t=%.0fs: %d PSNs flooded updates" now floods);
  if t.tables_dirty then install_tables t;
  (* Per-period series. *)
  if t.config.record_series then
    Array.iteri
      (fun i { queue = q } ->
        let bits = Link_queue.transmitted_bits q in
        let cap = Link.capacity_bps (Link_queue.link q) in
        Time_series.record t.util_series.(i) ~time:now
          ((bits -. t.prev_bits.(i)) /. (cap *. period));
        t.prev_bits.(i) <- bits;
        Time_series.record t.cost_series.(i) ~time:now
          (float_of_int (Metric.cost t.metric (Link.id_of_int i))))
      t.lines;
  (* Telemetry per-period: queue depths, the shared hooks' cost-in-hops
     series, flip detection over the flooded costs, and the SPF engine
     counters kept current. *)
  (match t.obs with
  | None -> ()
  | Some o ->
    Array.iteri
      (fun i { queue = q } ->
        Obs_metrics.sample o.queue_depth.(i) ~time:now
          (float_of_int (Link_queue.queue_length q)))
      t.lines;
    Telemetry_hooks.observe_costs o.hooks t.graph t.metric ~time:now;
    for i = 0 to Array.length t.link_up - 1 do
      Obs_oscillation.observe ?on_flag:o.on_flag o.osc ~link:i ~tick:t.period
        ~cost:(Metric.cost t.metric (Link.id_of_int i))
    done;
    Telemetry_hooks.record_spf_stats o.hooks (Spf_engine.stats t.spf));
  Obs_span.leave t.st_period

let schedule_period t =
  Engine.schedule t.engine ~after:Units.routing_period_s
    ~kind:Engine.routing_period ~a:0 ~b:0

(* The engine's one handler: every event is an int row. *)
let dispatch t kind a b =
  if kind = Engine.arrival then arrive t a b
  else if kind = Engine.transmission_complete then
    Link_queue.complete t.lines.(a).queue b
  else if kind = Engine.generate then
    match t.workload with Some w -> Workload.fire w a | None -> ()
  else if kind = Engine.retransmit then retransmit t a b
  else begin
    routing_period t;
    schedule_period t
  end

let create ?config graph tm =
  let config = Option.value config ~default:(default_config Metric.Hn_spf) in
  let n = Graph.node_count graph in
  let nl = Graph.link_count graph in
  let engine = Engine.create () in
  let rng = Rng.create config.seed in
  let metric = Metric.create config.metric graph in
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
  let stage =
    Obs_span.stage ?profile:(Option.map Telemetry.spans config.telemetry)
      tracer
  in
  let link i = Graph.link graph (Link.id_of_int i) in
  let no_update = { Update.origin = Node.of_int 0; seq = Sequence.zero; costs = [] } in
  let flight_capacity =
    flight_capacity ~instant_flooding:config.instant_flooding ~nodes:n
  in
  let views =
    Array.init (if config.instant_flooding then 0 else n) (fun _ ->
        Array.init nl (fun i -> Metric.cost metric (Link.id_of_int i)))
  in
  let t =
    { graph;
      config;
      engine;
      clock = Engine.clock engine;
      metric;
      next_hops = Array.init n (fun _ -> Array.make n (-1));
      pool = Packet.create (Engine.clock engine);
      lines = [||];
      measurements = Array.init nl (fun i -> Measurement.create (link i));
      link_delay = Array.make nl 0.;
      link_src = Array.init nl (fun i -> Node.to_int (link i).Link.src);
      link_dst = Array.init nl (fun i -> Node.to_int (link i).Link.dst);
      link_rev = Array.init nl (fun i -> Link.id_to_int (link i).Link.reverse);
      flooders =
        Array.init n (fun i -> Flooder.create graph ~owner:(Node.of_int i));
      flood_tx = Broadcast.instant_transmissions graph;
      workload = None;
      measure = Measure.create ~nodes:n;
      min_hops = Array.make (n * n) (-1);
      link_up = Array.make nl true;
      prev_bits = Array.make nl 0.;
      views;
      view_costs =
        Array.map (fun view lid -> view.(Link.id_to_int lid)) views;
      weights =
        Array.init (if config.instant_flooding then 0 else n) (fun _ ->
            Array.make nl (-1));
      trees = [||];
      repair = Spf_repair.scratch ();
      changes =
        (let c = Spf_repair.changes () in
         Spf_repair.reserve_changes c nl;
         c);
      flights = Array.make flight_capacity no_update;
      flight_originated = Array.make flight_capacity 0.;
      flight_bits = Array.make flight_capacity 0.;
      oldest_token = 0;
      next_update_token = 0;
      pending = Bytes.make (flight_capacity * nl) '\000';
      chg_ids = Array.make nl 0;
      chg_costs = Array.make nl 0;
      link_rng = Rng.create (config.seed lxor 0x5F5F5F);
      flood_latency = Welford.create ();
      spf = Spf_engine.create ?pool ~tracer graph;
      period = 0;
      st_period = stage "routing_period";
      st_refresh = stage "spf_refresh";
      st_flood = stage "flood";
      obs = Option.map (fun tele -> make_obs_state tele ~links:nl)
          config.telemetry;
      cost_series =
        Array.init nl (fun i -> Time_series.create (Printf.sprintf "cost:l%d" i));
      util_series =
        Array.init nl (fun i -> Time_series.create (Printf.sprintf "util:l%d" i));
      started = false;
      tables_dirty = true }
  in
  t.lines <- Array.init nl (fun i -> { queue = make_queue t (link i) });
  Engine.set_dispatch engine (fun kind a b -> dispatch t kind a b);
  (* Expose the per-link series the simulator already keeps through the
     registry, so a metrics snapshot carries Figs 5–8's raw series without
     recording anything twice. *)
  (match config.telemetry with
  | None -> ()
  | Some tele ->
    let m = Telemetry.metrics tele in
    let adopt name =
      Array.iteri (fun i s ->
          Obs_metrics.adopt_series m ~labels:(Telemetry_hooks.link_label i)
            name s)
    in
    adopt "link_cost" t.cost_series;
    adopt "link_utilization" t.util_series);
  t.workload <-
    Some
      (Workload.create rng engine t.pool tm ~inject:(fun p ->
           forward t (Packet.src t.pool p) p));
  Graph_analysis.hop_counts_into ~up:t.link_up graph t.min_hops;
  install_tables t;
  t

let graph t = t.graph

let metric t = t.metric

let engine t = t.engine

let run t ~duration_s =
  if not t.started then begin
    t.started <- true;
    Option.iter Workload.start t.workload;
    schedule_period t
  end;
  Engine.run_until t.engine (Engine.now t.engine +. duration_s)

let indicators t =
  Measure.indicators t.measure ~elapsed_s:(Float.max 1e-9 (Engine.now t.engine))

let reset_measurements t = Measure.reset t.measure

let set_link_up t lid up =
  let i = Link.id_to_int lid in
  if t.link_up.(i) <> up then begin
    t.link_up.(i) <- up;
    if tracing t then trace t (fun () -> Trace.Link_state { link = lid; up });
    Log.info (fun m ->
        m "t=%.0fs: link %a %s" (Engine.now t.engine) Link.pp
          (Graph.link t.graph lid)
          (if up then "up (easing in)" else "down"));
    if not up then
      (* Updates pending on a dead line will never be acknowledged. *)
      for token = t.oldest_token to t.next_update_token - 1 do
        set_pending t token i false
      done;
    Link_queue.set_up t.lines.(i).queue up;
    if up then Metric.link_up t.metric lid;
    Graph_analysis.hop_counts_into ~up:t.link_up t.graph t.min_hops;
    install_tables t
  end

let cost_series t lid = t.cost_series.(Link.id_to_int lid)

let utilization_series t lid = t.util_series.(Link.id_to_int lid)

let median_delay_ms t = Measure.median_delay_ms t.measure

let p95_delay_ms t = Measure.p95_delay_ms t.measure

let delivered_packets t = Measure.delivered_packets t.measure

let dropped_packets t = Measure.dropped_packets t.measure

let flood_latency_stats t = t.flood_latency

let generated_packets t =
  match t.workload with
  | Some w -> Workload.generated_packets w
  | None -> 0

let spf_stats t = Spf_engine.stats t.spf
