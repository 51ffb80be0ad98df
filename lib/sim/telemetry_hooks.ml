open! Import

type t = {
  cost_hops : Obs_metrics.series array;
  mutable idle : (Metric.kind * float array) option; (* per link, >= 1 *)
  on_flag : link:int -> tick:int -> flips:int -> unit;
  spf_gauges : (Obs_metrics.gauge * (Spf_engine.stats -> int)) list;
}

let link_label i = [ ("link", Printf.sprintf "l%d" i) ]

(* One [spf_engine{counter=…}] gauge per engine counter. *)
let spf_counters : (string * (Spf_engine.stats -> int)) list =
  [ ("refreshes", fun s -> s.Spf_engine.refreshes);
    ("skipped", fun s -> s.Spf_engine.skipped);
    ("full_sweeps", fun s -> s.Spf_engine.full_sweeps);
    ("sources_recomputed", fun s -> s.Spf_engine.sources_recomputed);
    ("sources_repaired", fun s -> s.Spf_engine.sources_repaired);
    ("sources_reused", fun s -> s.Spf_engine.sources_reused);
    ("nodes_resettled", fun s -> s.Spf_engine.nodes_resettled) ]

let attach tele ~links ~osc =
  let m = Telemetry.metrics tele in
  let sink = Telemetry.sink tele in
  let osc_flags = Obs_metrics.counter m "oscillation_flags" in
  Telemetry.adopt_oscillation tele osc;
  { cost_hops =
      Array.init links (fun i ->
          Obs_metrics.series m ~labels:(link_label i) "link_cost_hops");
    idle = None;
    on_flag =
      (fun ~link ~tick ~flips ->
        Obs_metrics.inc osc_flags;
        Obs_sink.emit sink (fun () ->
            Obs_json.Obj
              [ ("t",
                 Obs_json.Float
                   (float_of_int tick *. Units.routing_period_s));
                ("ev", Obs_json.String "oscillation");
                ("link", Obs_json.Int link);
                ("flips", Obs_json.Int flips) ]));
    spf_gauges =
      List.map
        (fun (which, read) ->
          let labels = [ ("counter", which) ] in
          (Obs_metrics.gauge m ~labels "spf_engine", read))
        spf_counters }

let on_flag h = h.on_flag

(* A link's idle cost is a constant of its metric kind, but
   [Metric.idle_cost] builds a fresh HNM or D-SPF state to read it: build
   the table once per kind (a simulator's first period, and after a
   [Flow_sim.switch_metric]) instead of once per link per period. *)
let idle_costs h graph kind =
  match h.idle with
  | Some (k, idle) when k = kind -> idle
  | _ ->
    let idle =
      Array.init (Graph.link_count graph) (fun i ->
          let link = Graph.link graph (Link.id_of_int i) in
          float_of_int (max 1 (Metric.idle_cost kind link)))
    in
    h.idle <- Some (kind, idle);
    idle

let observe_costs h graph metric ~time =
  let idle = idle_costs h graph (Metric.kind metric) in
  for i = 0 to Graph.link_count graph - 1 do
    let cost = Metric.cost metric (Link.id_of_int i) in
    Obs_metrics.sample h.cost_hops.(i) ~time (float_of_int cost /. idle.(i))
  done

let record_spf_stats h stats =
  List.iter
    (fun (gauge, read) -> Obs_metrics.set gauge (float_of_int (read stats)))
    h.spf_gauges
