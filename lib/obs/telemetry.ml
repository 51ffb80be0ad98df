type t = {
  metrics : Metrics.t;
  sink : Sink.t;
  spans : Span.t;
  tracer : Tracer.t;
  osc_max_flips : int;
  mutable osc : Oscillation.t option;
}

let create ?(sink = Sink.null) ?(clock = Span.untimed) ?(tracer = Tracer.null)
    ?(osc_max_flips = 4) () =
  { metrics = Metrics.create ();
    sink;
    spans = Span.create ~clock ();
    tracer;
    osc_max_flips;
    osc = None }

let metrics t = t.metrics

let sink t = t.sink

let spans t = t.spans

let tracer t = t.tracer

let osc_max_flips t = t.osc_max_flips

let adopt_oscillation t o = t.osc <- Some o

let oscillation t = t.osc

(* What a snapshot carries beyond the registry itself. *)
let extra t =
  let osc_json =
    match t.osc with
    | None -> Json.Null
    | Some o ->
      Json.Obj
        [ ("flagged",
           Json.List (List.map (fun i -> Json.Int i) (Oscillation.flagged o)));
          ("ever_flagged",
           Json.List
             (List.map (fun i -> Json.Int i) (Oscillation.ever_flagged o)));
          ("flag_count", Json.Int (Oscillation.flag_count o)) ]
  in
  [ ("spans", Span.to_json t.spans);
    ("oscillation", osc_json);
    ("events_emitted", Json.Int (Sink.emitted t.sink)) ]

let snapshot_json t = Metrics.to_json ~extra:(extra t) t.metrics

let write_metrics t path = Metrics.write_file ~extra:(extra t) t.metrics path

let close t = Sink.close t.sink
