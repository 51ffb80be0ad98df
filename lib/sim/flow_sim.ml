open! Import
module Quantile = Routing_stats.Quantile

let log_src = Logs.Src.create "routing_sim.flow" ~doc:"flow-level simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type period_stats = {
  time_s : float;
  offered_bps : float;
  delivered_bps : float;
  dropped_bps : float;
  mean_delay_s : float;
  mean_hops : float;
  mean_min_hops : float;
  updates : int;
  update_bits : float;
  max_utilization : float;
  congested_links : int;
  routes_changed : int;
  next_hop_flips : int;
  link_flips : int;
}

(* Telemetry handles, resolved once when the bundle is attached.  The flow
   simulator keeps no series of its own, so the registry's are the only
   copies. *)
type obs_state = {
  hooks : Telemetry_hooks.t;
  obs_sink : Obs_sink.t;
  updates_counter : Obs_metrics.counter;
  util_series : Obs_metrics.series array;
  cost_series : Obs_metrics.series array;
}

let make_obs_state tele ~links ~osc =
  let m = Telemetry.metrics tele in
  let per_link name =
    Array.init links (fun i ->
        Obs_metrics.series m ~labels:(Telemetry_hooks.link_label i) name)
  in
  { hooks = Telemetry_hooks.attach tele ~links ~osc;
    obs_sink = Telemetry.sink tele;
    updates_counter = Obs_metrics.counter m "updates_flooded";
    util_series = per_link "link_utilization";
    cost_series = per_link "link_cost" }

(* All-float and therefore flat: per-period accumulation stores unboxed
   floats into these fields, where a float ref (or a mixed int/float
   record) would box on update. *)
type facc = {
  mutable f_offered : float;
  mutable f_delivered : float;
  mutable f_dropped : float;
  mutable f_delay_w : float;
  mutable f_hops_w : float;
  mutable f_min_hops_w : float;
  mutable f_max_util : float;
}

(* Struct-of-arrays period history.  [tick] appends plain floats and ints
   into preallocated columns instead of consing a [period_stats] — the
   allocation-regression gate counts on this — and [step] / [history] /
   [indicators] rebuild record views on demand (cold). *)
type hist = {
  mutable len : int;
  mutable h_time : float array;
  mutable h_offered : float array;
  mutable h_delivered : float array;
  mutable h_dropped : float array;
  mutable h_delay : float array;
  mutable h_hops : float array;
  mutable h_min_hops : float array;
  mutable h_updates : int array;
  mutable h_bits : float array;
  mutable h_max_util : float array;
  mutable h_congested : int array;
  mutable h_routes : int array;
  mutable h_nh_flips : int array;
  mutable h_link_flips : int array;
}

let hist_create () =
  let c = 64 in
  { len = 0;
    h_time = Array.make c 0.;
    h_offered = Array.make c 0.;
    h_delivered = Array.make c 0.;
    h_dropped = Array.make c 0.;
    h_delay = Array.make c 0.;
    h_hops = Array.make c 0.;
    h_min_hops = Array.make c 0.;
    h_updates = Array.make c 0;
    h_bits = Array.make c 0.;
    h_max_util = Array.make c 0.;
    h_congested = Array.make c 0;
    h_routes = Array.make c 0;
    h_nh_flips = Array.make c 0;
    h_link_flips = Array.make c 0 }

let hist_grow h =
  let growf a =
    let b = Array.make (2 * Array.length a) 0. in
    Array.blit a 0 b 0 h.len;
    b
  and growi a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 h.len;
    b
  in
  h.h_time <- growf h.h_time;
  h.h_offered <- growf h.h_offered;
  h.h_delivered <- growf h.h_delivered;
  h.h_dropped <- growf h.h_dropped;
  h.h_delay <- growf h.h_delay;
  h.h_hops <- growf h.h_hops;
  h.h_min_hops <- growf h.h_min_hops;
  h.h_updates <- growi h.h_updates;
  h.h_bits <- growf h.h_bits;
  h.h_max_util <- growf h.h_max_util;
  h.h_congested <- growi h.h_congested;
  h.h_routes <- growi h.h_routes;
  h.h_nh_flips <- growi h.h_nh_flips;
  h.h_link_flips <- growi h.h_link_flips

(* Below this many flows the parallel assignment and metrics paths'
   fork/join and job bookkeeping cost more than the sweeps themselves;
   stay sequential. *)
let parallel_flow_threshold = 4096

type t = {
  graph : Graph.t;
  mutable metric : Metric.t;
  mutable flows : Flow_store.t;
  link_up : bool array;
  utilization : float array; (* most recent period, raw offered/capacity *)
  pool : Domain_pool.t option; (* the engine's and the flow stripes' *)
  engine : Spf_engine.t; (* per-source trees on flooded costs *)
  mutable period : int;
  hist : hist;
  mutable adaptive_sources : bool;
  mutable prev_first_hop : int array; (* per flow index; -1 = none yet *)
  mutable prev2_first_hop : int array; (* first hop two periods ago *)
  (* Per-period scratch, sized once and reused forever: the hot path
     allocates nothing in steady state. *)
  assign : Load_assign.t;
  offered : float array; (* per link *)
  link_delay : float array; (* per link: M/M/1/K delay at this period's load *)
  link_pass : float array; (* per link: 1 - blocking probability *)
  link_src : int array; (* per link: source node id, denormalized *)
  mutable sending : float array; (* per flow: demand x throttle *)
  mutable first_hop : int array; (* per flow, this period *)
  mutable flow_delay : float array; (* per flow: path delay this period *)
  mutable flow_share : float array; (* per flow: survival share *)
  mutable flow_hops : int array; (* per flow: path length; -1 = unreached *)
  (* Node x node min-hop counts over the up links
     ({!Graph_analysis.hop_counts_into}); [||] until the first period's
     accounting and again after a link fails or revives. *)
  mutable hop_table : int array;
  (* Per-flow min-hop path lengths (-1 = unreached), valid for the store
     [mh_store] at version [mh_version] on the current hop table. *)
  mutable min_hops : int array;
  mutable mh_store : Flow_store.t;
  mutable mh_version : int; (* -1: stale *)
  chg_ids : int array; (* flooded links, grouped by origin, from the metric *)
  chg_costs : int array;
  flood_tx : int array;
      (* per origin: transmissions of one instant flood
         ({!Broadcast.instant_transmissions}) *)
  acc : facc;
  (* The flip detector over the flooded costs, fed every period with or
     without a telemetry bundle: its totals are [link_flips], and its
     flags are the bundle's. *)
  osc : Obs_oscillation.t;
  (* Closure caches: the hot path passes stored closures (and stored
     options, which ride through [?arg:opt] without re-wrapping) instead of
     rebuilding them every period. *)
  on_flag : (link:int -> tick:int -> flips:int -> unit) option;
  tree_for_f : Node.t -> Spf_tree.t; (* the engine's current trees *)
  enabled_opt : (Link.id -> bool) option;
  mutable cost_f : Link.id -> int; (* rebuilt on switch_metric *)
  tracer : Tracer.t;
  (* The period's stages, into the tracer and the bundle's profile. *)
  st_period : Obs_span.stage;
  st_refresh : Obs_span.stage;
  st_assign : Obs_span.stage;
  st_metrics : Obs_span.stage;
  st_account : Obs_span.stage;
  st_flood : Obs_span.stage;
  tr_updates : int; (* interned counter names *)
  tr_routes : int;
  obs : obs_state option;
}

(* A store large enough to fan out gets the parallel assignment scratch
   when it is installed, not from the first period that assigns it (a
   pooled [Spf_engine] sizes its repair scratch at creation for the same
   reason). *)
let reserve_fanout t =
  match t.pool with
  | Some pool when Flow_store.length t.flows >= parallel_flow_threshold ->
    Load_assign.reserve_parallel t.assign ~slots:(Domain_pool.size pool)
  | Some _ | None -> ()

let create_with ?(domains = Domain_pool.resolve ()) ?telemetry ?tracer
    graph metric tm =
  let nl = Graph.link_count graph in
  let pool = if domains > 1 then Some (Domain_pool.create domains) else None in
  let tracer =
    match tracer with
    | Some tr -> tr
    | None -> (
      match telemetry with
      | Some tele -> Telemetry.tracer tele
      | None -> Tracer.null)
  in
  if Tracer.enabled tracer then
    Option.iter
      (fun p -> Domain_pool.set_probe p (Some (Tracer.pool_probe tracer)))
      pool;
  let link_up = Array.make nl true in
  let osc =
    Obs_oscillation.create
      ?max_flips:(Option.map Telemetry.osc_max_flips telemetry)
      ~links:nl ()
  in
  let obs =
    Option.map (fun tele -> make_obs_state tele ~links:nl ~osc) telemetry
  in
  let engine = Spf_engine.create ?pool ~tracer graph in
  let stage =
    Obs_span.stage ?profile:(Option.map Telemetry.spans telemetry) tracer
  in
  let flows = Flow_store.of_matrix tm in
  let t =
    { graph;
      metric;
      flows;
      link_up;
      utilization = Array.make nl 0.;
      pool;
      engine;
      period = 0;
      hist = hist_create ();
      adaptive_sources = false;
      prev_first_hop = [||];
      prev2_first_hop = [||];
      assign = Load_assign.create graph;
      offered = Array.make nl 0.;
      link_delay = Array.make nl 0.;
      link_pass = Array.make nl 0.;
      link_src =
        Array.init nl (fun i ->
            Node.to_int (Graph.link graph (Link.id_of_int i)).Link.src);
      sending = [||];
      first_hop = [||];
      flow_delay = [||];
      flow_share = [||];
      flow_hops = [||];
      hop_table = [||];
      min_hops = [||];
      mh_store = flows;
      mh_version = -1;
      chg_ids = Array.make nl 0;
      chg_costs = Array.make nl 0;
      flood_tx = Broadcast.instant_transmissions graph;
      acc =
        { f_offered = 0.;
          f_delivered = 0.;
          f_dropped = 0.;
          f_delay_w = 0.;
          f_hops_w = 0.;
          f_min_hops_w = 0.;
          f_max_util = 0. };
      osc;
      on_flag = Option.map (fun o -> Telemetry_hooks.on_flag o.hooks) obs;
      tree_for_f = Spf_engine.tree engine;
      enabled_opt = Some (fun lid -> link_up.(Link.id_to_int lid));
      cost_f = Metric.cost_fn metric;
      tracer;
      st_period = stage "routing_period";
      st_refresh = stage "spf_refresh";
      st_assign = stage "flow_assign";
      st_metrics = stage "flow_metrics";
      st_account = stage "flow_account";
      st_flood = stage "flood";
      tr_updates = Tracer.intern tracer "updates_flooded";
      tr_routes = Tracer.intern tracer "routes_changed";
      obs }
  in
  reserve_fanout t;
  t

let create ?domains ?telemetry ?tracer graph kind tm =
  create_with ?domains ?telemetry ?tracer graph (Metric.create kind graph) tm

let graph t = t.graph

let metric t = t.metric

let time_s t = float_of_int t.period *. Units.routing_period_s

let period_index t = t.period

(* Min-hop counts change only when a trunk fails or revives, so the hop
   table is built at first use and dropped by [set_link_up], and the
   per-flow min-hop lengths are a column over it, refilled only when
   stale: the table was rebuilt, or the flow store changed by identity
   or version, the key [Load_assign] groups on. *)
let fill_min_hops t =
  let flows = t.flows in
  let n = Graph.node_count t.graph in
  if Array.length t.hop_table <> n * n then begin
    t.hop_table <- Array.make (n * n) (-1);
    Graph_analysis.hop_counts_into ~up:t.link_up t.graph t.hop_table;
    t.mh_version <- -1
  end;
  if t.mh_store != flows || t.mh_version <> Flow_store.version flows then begin
    let nf = Flow_store.length flows in
    if Array.length t.min_hops < nf then t.min_hops <- Array.make nf (-1);
    let src = Flow_store.src_col flows and dst = Flow_store.dst_col flows in
    for fi = 0 to nf - 1 do
      t.min_hops.(fi) <- t.hop_table.((src.(fi) * n) + dst.(fi))
    done;
    t.mh_store <- flows;
    t.mh_version <- Flow_store.version flows
  end

let spf_stats t = Spf_engine.stats t.engine

(* End-to-end source adaptation: the 1987 ARPANET's users backed off under
   loss (TCP and the IMP's own end-to-end mechanisms), so offered traffic
   tracked what the network could carry.  Multiplicative decrease on
   significant loss, slow additive recovery.  The per-flow throttle lives
   in the flow store's float column: updating it is one unboxed array
   write per flow, no hashing, no boxing — and when adaptation is off the
   column just stays at 1, so the sending pass multiplies by 1.0 (IEEE
   bit-exact) instead of branching. *)
let[@inline] step_throttle throttle fi ~loss_fraction =
  let current = throttle.(fi) in
  throttle.(fi) <-
    (if loss_fraction > 0.02 then Float.max 0.05 (current *. 0.7)
     else Float.min 1. (current +. 0.05))

let tick t =
  Obs_span.enter t.st_period;
  (* The engine diffs the flooded costs (and the up/down set) itself, so
     refresh is cheap whenever a period flooded no significant update. *)
  Obs_span.enter t.st_refresh;
  Spf_engine.refresh ?enabled:t.enabled_opt t.engine ~cost:t.cost_f;
  Obs_span.leave t.st_refresh;
  let nl = Graph.link_count t.graph in
  let nf = Flow_store.length t.flows in
  let demand = Flow_store.demand_col t.flows in
  let throttle = Flow_store.throttle_col t.flows in
  if Array.length t.prev_first_hop <> nf then begin
    t.prev_first_hop <- Array.make nf (-1);
    t.prev2_first_hop <- Array.make nf (-1)
  end;
  if Array.length t.sending < nf then begin
    t.sending <- Array.make nf 0.;
    t.first_hop <- Array.make nf (-2);
    t.flow_delay <- Array.make nf 0.;
    t.flow_share <- Array.make nf 0.;
    t.flow_hops <- Array.make nf (-1)
  end;
  (* Vectorized sending pass over the store's columns.  With adaptation
     off every throttle is 1 and the multiply is bit-exact identity. *)
  for fi = 0 to nf - 1 do
    t.sending.(fi) <- demand.(fi) *. throttle.(fi)
  done;
  (* Pass 1: aggregate demand by destination and push subtree loads across
     each source's tree — O(V+E) per source instead of a walk per flow.
     Above the threshold, source stripes fan out over the domain pool;
     the stream-replay reduction keeps results bit-identical. *)
  Array.fill t.offered 0 nl 0.;
  Obs_span.enter t.st_assign;
  let pool = if nf >= parallel_flow_threshold then t.pool else None in
  Load_assign.assign ?pool t.assign ~flows:t.flows ~tree_for:t.tree_for_f
    ~sending:t.sending ~offered:t.offered ~first_hop:t.first_hop;
  Obs_span.leave t.st_assign;
  (* Route-change accounting against the previous periods (§3.3's route
     oscillation, counted Rzepka & Chołda-style): a changed first hop is a
     route change; coming straight back to the hop of two periods ago is a
     next-hop flip.  Unreached flows keep their last known first hop. *)
  let routes_changed = ref 0 in
  let nh_flips = ref 0 in
  for fi = 0 to nf - 1 do
    let fh = t.first_hop.(fi) in
    if fh <> -2 then begin
      let prev = t.prev_first_hop.(fi) in
      if prev >= 0 && prev <> fh then begin
        incr routes_changed;
        if t.prev2_first_hop.(fi) = fh then incr nh_flips
      end;
      t.prev2_first_hop.(fi) <- prev;
      t.prev_first_hop.(fi) <- fh
    end
  done;
  (* Per-link queueing terms, once per link rather than once per flow-hop:
     utilization, M/M/1/K delay and the survival probability. *)
  let acc = t.acc in
  acc.f_offered <- 0.;
  acc.f_delivered <- 0.;
  acc.f_dropped <- 0.;
  acc.f_delay_w <- 0.;
  acc.f_hops_w <- 0.;
  acc.f_min_hops_w <- 0.;
  acc.f_max_util <- 0.;
  let congested = ref 0 in
  Queueing.mm1k_into t.graph ~up:t.link_up ~offered_bps:t.offered
    ~utilization:t.utilization ~delay_s:t.link_delay ~pass:t.link_pass;
  for i = 0 to nl - 1 do
    let u = t.utilization.(i) in
    if u > acc.f_max_util then acc.f_max_util <- u;
    if u > 0.9 then incr congested
  done;
  (* Pass 2: per-flow delay, hop counts and thinning over hot links — path
     totals served in O(1) per flow from the root-outward sweep, landing in
     per-flow columns rather than boxed callback arguments.  Source
     stripes fan out like pass 1's; every write is per-flow, so the
     result is bit-identical with no replay. *)
  Obs_span.enter t.st_metrics;
  Load_assign.metrics_into ?pool t.assign ~flows:t.flows
    ~tree_for:t.tree_for_f ~link_delay:t.link_delay ~link_pass:t.link_pass
    ~delay_s:t.flow_delay ~share:t.flow_share ~hops:t.flow_hops;
  Obs_span.leave t.st_metrics;
  (* Accounting, sequential and in flow order so the float totals keep
     their summation order. *)
  Obs_span.enter t.st_account;
  fill_min_hops t;
  let min_hops = t.min_hops in
  let adaptive = t.adaptive_sources in
  for fi = 0 to nf - 1 do
    let sending = t.sending.(fi) in
    acc.f_offered <- acc.f_offered +. sending;
    let hops = t.flow_hops.(fi) in
    if hops < 0 then begin
      acc.f_dropped <- acc.f_dropped +. sending;
      if adaptive then step_throttle throttle fi ~loss_fraction:1.
    end
    else begin
      let share = t.flow_share.(fi) in
      if adaptive then step_throttle throttle fi ~loss_fraction:(1. -. share);
      let carried = sending *. share in
      acc.f_delivered <- acc.f_delivered +. carried;
      acc.f_dropped <- acc.f_dropped +. (sending -. carried);
      acc.f_delay_w <- acc.f_delay_w +. (t.flow_delay.(fi) *. carried);
      acc.f_hops_w <- acc.f_hops_w +. (float_of_int hops *. carried);
      let mh = min_hops.(fi) in
      let mh = if mh >= 0 then mh else hops in
      acc.f_min_hops_w <- acc.f_min_hops_w +. (float_of_int mh *. carried)
    end
  done;
  Obs_span.leave t.st_account;
  (* Metric pass: feed each up link its period delay, in one batch call;
     quiet periods return 0 without touching the heap. *)
  let nch =
    Metric.period_update_all t.metric ~up:t.link_up ~link_delay_s:t.link_delay
      ~changed_ids:t.chg_ids ~changed_costs:t.chg_costs
  in
  (* One update per origin run of the flooded links, flooded instantly:
     every copy is fresh, so its transmissions are the topology's count
     and only the bits need computing. *)
  Obs_span.enter t.st_flood;
  let updates =
    Update.runs ~link_src:t.link_src ~changed_ids:t.chg_ids ~count:nch
  in
  let bits =
    Broadcast.instant_bits t.flood_tx ~link_src:t.link_src
      ~changed_ids:t.chg_ids ~count:nch
  in
  Obs_span.leave t.st_flood;
  t.period <- t.period + 1;
  let now = time_s t in
  (* Flip detection over the flooded costs runs with or without a
     telemetry bundle; with one, a calm→flagged link is also counted and
     emitted as an event. *)
  let flips_before = Obs_oscillation.total_flips t.osc in
  for i = 0 to nl - 1 do
    Obs_oscillation.observe ?on_flag:t.on_flag t.osc ~link:i ~tick:t.period
      ~cost:(Metric.cost t.metric (Link.id_of_int i))
  done;
  let link_flips = Obs_oscillation.total_flips t.osc - flips_before in
  Tracer.counter t.tracer t.tr_updates ~value:updates;
  Tracer.counter t.tracer t.tr_routes ~value:!routes_changed;
  (* Telemetry per-period: utilization and cost series, the shared hooks
     (cost-in-hops series, SPF engine gauges), the update counter and one
     JSONL summary event. *)
  (match t.obs with
  | None -> ()
  | Some o ->
    for i = 0 to nl - 1 do
      Obs_metrics.sample o.util_series.(i) ~time:now t.utilization.(i);
      Obs_metrics.sample o.cost_series.(i) ~time:now
        (float_of_int (Metric.cost t.metric (Link.id_of_int i)))
    done;
    Telemetry_hooks.observe_costs o.hooks t.graph t.metric ~time:now;
    Obs_metrics.inc ~by:updates o.updates_counter;
    Telemetry_hooks.record_spf_stats o.hooks (Spf_engine.stats t.engine);
    let routes_changed = !routes_changed in
    let congested = !congested in
    Obs_sink.emit o.obs_sink (fun () ->
        Obs_json.Obj
          [ ("t", Obs_json.Float now);
            ("ev", Obs_json.String "period");
            ("updates", Obs_json.Int updates);
            ("delivered_bps", Obs_json.Float acc.f_delivered);
            ("dropped_bps", Obs_json.Float acc.f_dropped);
            ("max_utilization", Obs_json.Float acc.f_max_util);
            ("congested_links", Obs_json.Int congested);
            ("routes_changed", Obs_json.Int routes_changed) ]));
  (* Append the period's row to the history columns. *)
  let h = t.hist in
  if h.len = Array.length h.h_time then hist_grow h;
  let k = h.len in
  let delivered = acc.f_delivered in
  h.h_time.(k) <- now;
  h.h_offered.(k) <- acc.f_offered;
  h.h_delivered.(k) <- delivered;
  h.h_dropped.(k) <- acc.f_dropped;
  h.h_delay.(k) <- (if delivered > 0. then acc.f_delay_w /. delivered else 0.);
  h.h_hops.(k) <- (if delivered > 0. then acc.f_hops_w /. delivered else 0.);
  h.h_min_hops.(k) <-
    (if delivered > 0. then acc.f_min_hops_w /. delivered else 0.);
  h.h_updates.(k) <- updates;
  h.h_bits.(k) <- float_of_int bits;
  h.h_max_util.(k) <- acc.f_max_util;
  h.h_congested.(k) <- !congested;
  h.h_routes.(k) <- !routes_changed;
  h.h_nh_flips.(k) <- !nh_flips;
  h.h_link_flips.(k) <- link_flips;
  h.len <- k + 1;
  Obs_span.leave t.st_period

let stats_at t k =
  let h = t.hist in
  { time_s = h.h_time.(k);
    offered_bps = h.h_offered.(k);
    delivered_bps = h.h_delivered.(k);
    dropped_bps = h.h_dropped.(k);
    mean_delay_s = h.h_delay.(k);
    mean_hops = h.h_hops.(k);
    mean_min_hops = h.h_min_hops.(k);
    updates = h.h_updates.(k);
    update_bits = h.h_bits.(k);
    max_utilization = h.h_max_util.(k);
    congested_links = h.h_congested.(k);
    routes_changed = h.h_routes.(k);
    next_hop_flips = h.h_nh_flips.(k);
    link_flips = h.h_link_flips.(k) }

let step t =
  tick t;
  stats_at t (t.hist.len - 1)

let run t ~periods = List.init periods (fun _ -> step t)

let set_traffic t tm =
  t.flows <- Flow_store.of_matrix tm;
  t.prev_first_hop <- [||];
  reserve_fanout t

(* Install a host-level flow store directly — the million-flow path the
   heavy-tailed generator feeds.  AIMD throttles ride in the store, so a
   swapped-in store starts from its own throttle column. *)
let set_flows t store =
  if Flow_store.nodes store <> Graph.node_count t.graph then
    invalid_arg "Flow_sim.set_flows: store built for a different node count";
  t.flows <- store;
  t.prev_first_hop <- [||];
  reserve_fanout t

let flows t = t.flows

let switch_metric t kind =
  Log.info (fun m ->
      m "t=%.0fs: switching metric to %s" (time_s t) (Metric.kind_name kind));
  (* A software reload floods fresh costs for every link at once; the
     engine picks the new costs up by diffing on the next refresh. *)
  t.metric <- Metric.create kind t.graph;
  t.cost_f <- Metric.cost_fn t.metric

let set_link_up t lid up =
  let i = Link.id_to_int lid in
  if t.link_up.(i) <> up then begin
    Log.info (fun m ->
        m "t=%.0fs: link %a %s" (time_s t) Link.pp (Graph.link t.graph lid)
          (if up then "up (easing in)" else "down"));
    t.link_up.(i) <- up;
    t.hop_table <- [||];
    if up then Metric.link_up t.metric lid
  end

let set_adaptive_sources t enabled =
  t.adaptive_sources <- enabled;
  if not enabled then Flow_store.reset_throttle t.flows

let link_utilization t lid = t.utilization.(Link.id_to_int lid)

let link_cost t lid = Metric.cost t.metric lid

let route_change_totals t =
  let h = t.hist in
  let routes = ref 0 and nh = ref 0 and links = ref 0 in
  for k = 0 to h.len - 1 do
    routes := !routes + h.h_routes.(k);
    nh := !nh + h.h_nh_flips.(k);
    links := !links + h.h_link_flips.(k)
  done;
  (!routes, !nh, !links)

let indicators t ?(skip = 0) () =
  let h = t.hist in
  let n = h.len - skip in
  if n <= 0 then invalid_arg "Flow_sim.indicators: no periods retained";
  let fn = float_of_int n in
  let elapsed = fn *. Units.routing_period_s in
  let sumf a =
    let s = ref 0. in
    for k = skip to h.len - 1 do
      s := !s +. a.(k)
    done;
    !s
  and sumi a =
    let s = ref 0 in
    for k = skip to h.len - 1 do
      s := !s + a.(k)
    done;
    !s
  in
  let delivered_total = sumf h.h_delivered in
  let weighted a =
    if delivered_total > 0. then begin
      let s = ref 0. in
      for k = skip to h.len - 1 do
        s := !s +. (a.(k) *. h.h_delivered.(k))
      done;
      !s /. delivered_total
    end
    else 0.
  in
  let actual = weighted h.h_hops in
  let minimum = weighted h.h_min_hops in
  let updates = float_of_int (sumi h.h_updates) in
  (* Per-period delay percentiles, streamed in period order so the result
     is deterministic for equal histories. *)
  let q50 = Quantile.create 0.5
  and q95 = Quantile.create 0.95
  and q99 = Quantile.create 0.99 in
  for k = skip to h.len - 1 do
    Quantile.add q50 h.h_delay.(k);
    Quantile.add q95 h.h_delay.(k);
    Quantile.add q99 h.h_delay.(k)
  done;
  { Measure.elapsed_s = elapsed;
    internode_traffic_bps = delivered_total /. fn;
    round_trip_delay_ms = 2. *. weighted h.h_delay *. 1000.;
    updates_per_s = updates /. elapsed;
    update_period_per_node_s =
      (if updates = 0. then infinity
       else float_of_int (Graph.node_count t.graph) *. elapsed /. updates);
    actual_path_hops = actual;
    minimum_path_hops = minimum;
    path_ratio = (if minimum > 0. then actual /. minimum else 1.);
    dropped_per_s = sumf h.h_dropped /. fn /. 600.;
    overhead_bps = sumf h.h_bits /. elapsed;
    delay_p50_ms = Measure.quantile_ms q50;
    delay_p95_ms = Measure.quantile_ms q95;
    delay_p99_ms = Measure.quantile_ms q99;
    route_changes_per_period = float_of_int (sumi h.h_routes) /. fn;
    next_hop_flips_per_period = float_of_int (sumi h.h_nh_flips) /. fn;
    link_flips_per_period = float_of_int (sumi h.h_link_flips) /. fn }

let history t = List.init t.hist.len (fun k -> stats_at t k)
