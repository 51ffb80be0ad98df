open! Import

type t = {
  cost_hops : Obs_metrics.series array;
  osc : Obs_oscillation.t;
  on_flag : link:int -> time:float -> flips:int -> unit;
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

let attach tele ~links =
  let m = Telemetry.metrics tele in
  let sink = Telemetry.sink tele in
  let osc_flags = Obs_metrics.counter m "oscillation_flags" in
  { cost_hops =
      Array.init links (fun i ->
          Obs_metrics.series m ~labels:(link_label i) "link_cost_hops");
    osc = Telemetry.init_oscillation tele ~links;
    on_flag =
      (fun ~link ~time ~flips ->
        Obs_metrics.inc osc_flags;
        Obs_sink.emit sink (fun () ->
            Obs_json.Obj
              [ ("t", Obs_json.Float time);
                ("ev", Obs_json.String "oscillation");
                ("link", Obs_json.Int link);
                ("flips", Obs_json.Int flips) ]));
    spf_gauges =
      List.map
        (fun (which, read) ->
          let labels = [ ("counter", which) ] in
          (Obs_metrics.gauge m ~labels "spf_engine", read))
        spf_counters }

let[@inline] span_start = function
  | None -> 0.
  | Some tele -> Obs_span.clock_now (Telemetry.spans tele)

let[@inline] span_stop tele name started =
  match tele with
  | None -> ()
  | Some tele -> Obs_span.record (Telemetry.spans tele) ~name ~started

let observe_costs h graph metric ~time =
  let kind = Metric.kind metric in
  for i = 0 to Graph.link_count graph - 1 do
    let lid = Link.id_of_int i in
    let cost = Metric.cost metric lid in
    let idle = Metric.idle_cost kind (Graph.link graph lid) in
    Obs_metrics.sample h.cost_hops.(i) ~time
      (float_of_int cost /. float_of_int (max 1 idle));
    Obs_oscillation.observe ~on_flag:h.on_flag h.osc ~link:i ~time ~cost
  done

let record_spf_stats h stats =
  List.iter
    (fun (gauge, read) -> Obs_metrics.set gauge (float_of_int (read stats)))
    h.spf_gauges
