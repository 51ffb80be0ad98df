(* arpanet_sim — command-line front end for the simulators.

     dune exec bin/arpanet_sim.exe -- --help
     dune exec bin/arpanet_sim.exe -- --metric dspf --minutes 30
     dune exec bin/arpanet_sim.exe -- --topology milnet --scale 1.5 --packet-level
     dune exec bin/arpanet_sim.exe -- --compare --scale 1.2

   Runs the chosen metric over the chosen topology and prints the Table-1
   style network indicators; [--compare] runs min-hop, D-SPF and HN-SPF on
   identical traffic side by side. *)

open Routing_topology
module Flow_sim = Routing_sim.Flow_sim
module Network = Routing_sim.Network
module Measure = Routing_sim.Measure
module Metric = Routing_metric.Metric
module Units = Routing_metric.Units
module Table = Routing_stats.Table
module Spf_engine = Routing_spf.Spf_engine
module Telemetry = Routing_obs.Telemetry
module Tracer = Routing_obs.Tracer
module Trace_export = Routing_obs.Trace_export
module Obs_sink = Routing_obs.Sink
module Obs_span = Routing_obs.Span
module Obs_metrics = Routing_obs.Metrics
module Script = Routing_sim.Script
module Checker = Routing_check.Checker
module Diagnostic = Routing_check.Diagnostic

(* Lint a scenario file before simulating it: the cheap S0xx/T0xx
   passes (the R0xx stability sweep stays in arpanet_check).  Errors
   refuse the run; warnings print and continue; info stays quiet. *)
let precheck path =
  let diags =
    Checker.check_scenario_file
      ~options:{ Checker.stability = false; params = None }
      path
  in
  List.iter
    (fun d ->
      if d.Diagnostic.severity <> Diagnostic.Info then
        Format.eprintf "%a@." Diagnostic.pp d)
    diags;
  if Diagnostic.exit_code diags >= 2 then begin
    Format.eprintf
      "arpanet_sim: %s has errors, refusing to simulate (--no-check \
       overrides; arpanet_check shows the full report)@."
      path;
    exit 2
  end

let build_scenario topology file seed scale ~check =
  match file with
  | Some path -> (
    if check then precheck path;
    match Script.load path with
    | Ok s ->
      if s.Script.events <> [] then
        Format.eprintf
          "note: ignoring %d scripted at-event(s) in %s — arpanet_sim \
           runs steady state; use the replay tool to fire them@."
          (List.length s.Script.events) path;
      (s.Script.graph, Traffic_matrix.scale s.Script.traffic scale)
    | Error message ->
      Format.eprintf "cannot load %s: %s@." path message;
      exit 1)
  | None ->
    (* [topology_arg] admits only catalogue names. *)
    let g, demand = Option.get (Script.builtin topology) in
    (g, Traffic_matrix.scale (demand seed) scale)

type run_outcome = {
  ind : Measure.indicators;
  spf : Spf_engine.stats;  (** a copy taken at end of run *)
}

let copy_spf_stats (s : Spf_engine.stats) =
  { Spf_engine.refreshes = s.Spf_engine.refreshes;
    skipped = s.Spf_engine.skipped;
    full_sweeps = s.Spf_engine.full_sweeps;
    sources_recomputed = s.Spf_engine.sources_recomputed;
    sources_repaired = s.Spf_engine.sources_repaired;
    sources_reused = s.Spf_engine.sources_reused;
    nodes_resettled = s.Spf_engine.nodes_resettled }

let run_flow g tm kind ~domains ~minutes ~warmup_minutes ?telemetry () =
  let periods_per_minute = int_of_float (60. /. Units.routing_period_s) in
  let sim = Flow_sim.create ~domains ?telemetry g kind tm in
  ignore (Flow_sim.run sim ~periods:((minutes + warmup_minutes) * periods_per_minute));
  { ind = Flow_sim.indicators sim ~skip:(warmup_minutes * periods_per_minute) ();
    spf = copy_spf_stats (Flow_sim.spf_stats sim) }

let run_packet g tm kind ~domains ~minutes ~warmup_minutes ~seed ?telemetry () =
  let config =
    { (Network.default_config kind) with Network.seed; domains; telemetry }
  in
  let net = Network.create ~config g tm in
  Network.run net ~duration_s:(float_of_int warmup_minutes *. 60.);
  Network.reset_measurements net;
  Network.run net ~duration_s:(float_of_int minutes *. 60.);
  { ind = Network.indicators net;
    spf = copy_spf_stats (Network.spf_stats net) }

let setup_logging verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* Run briefly and write a utilization-colored Graphviz rendering. *)
let write_dot g tm metric path =
  let sim = Flow_sim.create g metric tm in
  let nl = Graph.link_count g in
  let sums = Array.make nl 0. in
  let periods = 60 and warmup = 20 in
  for p = 1 to periods do
    ignore (Flow_sim.step sim);
    if p > warmup then
      Graph.iter_links g (fun (l : Link.t) ->
          let i = Link.id_to_int l.Link.id in
          sums.(i) <- sums.(i) +. Flow_sim.link_utilization sim l.Link.id)
  done;
  let n = float_of_int (periods - warmup) in
  Dot.save path
    ~label:(Printf.sprintf "%s, mean utilization" (Metric.kind_name metric))
    ~utilization:(fun (l : Link.t) ->
      let i = Link.id_to_int l.Link.id in
      let r = Link.id_to_int l.Link.reverse in
      Some (Float.max (sums.(i) /. n) (sums.(r) /. n)))
    g;
  Format.printf "wrote %s (render with: dot -Tsvg %s -o net.svg)@." path path

(* With --compare each metric gets its own output files: insert the metric
   slug before the extension ("m.json" -> "m.hn-spf.json").  The compound
   ".trace.json" suffix stays intact ("m.trace.json" ->
   "m.hn-spf.trace.json") so replay still recognises Chrome traces. *)
let out_path base kind ~multi =
  if not multi then base
  else begin
    let slug = String.lowercase_ascii (Metric.kind_name kind) in
    if Filename.check_suffix base ".trace.json" then
      Filename.chop_suffix base ".trace.json" ^ "." ^ slug ^ ".trace.json"
    else begin
      let ext = Filename.extension base in
      if ext = "" then base ^ "." ^ slug
      else Filename.remove_extension base ^ "." ^ slug ^ ext
    end
  end

let pp_spf_stats ppf (name, (s : Spf_engine.stats)) =
  Format.fprintf ppf
    "  %-16s %d refreshes (%d skipped, %d full sweeps); sources: %d \
     recomputed, %d repaired (%d nodes re-settled), %d reused@."
    name s.Spf_engine.refreshes s.Spf_engine.skipped s.Spf_engine.full_sweeps
    s.Spf_engine.sources_recomputed s.Spf_engine.sources_repaired
    s.Spf_engine.nodes_resettled s.Spf_engine.sources_reused

let main topology file dump dot metrics scale minutes warmup packet_level seed
    domains trace_out metrics_out chrome_trace profile check =
  let g, tm = build_scenario topology file seed scale ~check in
  if dump then print_string (Serial.to_string g (Some tm))
  else match dot with
  | Some path -> write_dot g tm (List.hd metrics) path
  | None -> begin
  Format.printf "topology: %a@." Graph.pp_summary g;
  Format.printf "traffic:  %a (scale %.2fx)@." Traffic_matrix.pp_summary tm scale;
  Format.printf "engine:   %s, %d min after %d min warm-up@.@."
    (if packet_level then "packet-level DES" else "flow simulator")
    minutes warmup;
  let multi = List.length metrics > 1 in
  let topo_name =
    match file with Some path -> Filename.basename path | None -> topology
  in
  let telemetry_for kind =
    if trace_out = None && metrics_out = None && chrome_trace = None
       && not profile
    then None
    else begin
      let sink =
        match trace_out with
        | None -> Obs_sink.null
        | Some path -> Obs_sink.file (out_path path kind ~multi)
      in
      (* One clock for the stage profile and the flight recorder: wall
         time under --profile, untimed (deterministic) otherwise. *)
      let clock = if profile then Obs_span.wall else Obs_span.untimed in
      let tracer =
        match chrome_trace with
        | None -> Tracer.null
        | Some _ -> Tracer.create ~clock ()
      in
      let tele = Telemetry.create ~sink ~clock ~tracer () in
      let m = Telemetry.metrics tele in
      Obs_metrics.set_meta m "topology" topo_name;
      Obs_metrics.set_meta m "metric" (Metric.kind_name kind);
      Obs_metrics.set_meta m "engine"
        (if packet_level then "packet" else "flow");
      Obs_metrics.set_meta m "seed" (string_of_int seed);
      Obs_metrics.set_meta m "scale" (Printf.sprintf "%.2f" scale);
      Obs_metrics.set_meta m "minutes" (string_of_int minutes);
      Obs_metrics.set_meta m "warmup_minutes" (string_of_int warmup);
      Obs_metrics.set_meta m "domains" (string_of_int domains);
      Some tele
    end
  in
  let runs =
    List.map
      (fun kind ->
        let telemetry = telemetry_for kind in
        let o =
          if packet_level then
            run_packet g tm kind ~domains ~minutes ~warmup_minutes:warmup ~seed
              ?telemetry ()
          else
            run_flow g tm kind ~domains ~minutes ~warmup_minutes:warmup
              ?telemetry ()
        in
        Option.iter
          (fun tele ->
            Measure.export (Telemetry.metrics tele) o.ind;
            (match metrics_out with
            | Some path ->
              let path = out_path path kind ~multi in
              Telemetry.write_metrics tele path;
              Format.printf "wrote metrics snapshot %s@." path
            | None -> ());
            Telemetry.close tele;
            (match trace_out with
            | Some path ->
              Format.printf "wrote %d trace events to %s@."
                (Obs_sink.emitted (Telemetry.sink tele))
                (out_path path kind ~multi)
            | None -> ());
            (match chrome_trace with
            | Some path ->
              let path = out_path path kind ~multi in
              let tr = Telemetry.tracer tele in
              Trace_export.write_chrome tr path;
              Format.printf
                "wrote Chrome trace %s (%d domain track(s), %d dropped; \
                 load in Perfetto)@."
                path (Tracer.slots tr) (Tracer.dropped tr)
            | None -> ());
            if profile then
              Format.printf "@.%s wall-time profile:@.%a@."
                (Metric.kind_name kind) Obs_span.pp (Telemetry.spans tele))
          telemetry;
        (Metric.kind_name kind, o))
      metrics
  in
  print_string
    (Table.to_string
       (Measure.comparison_table ~title:"Network indicators"
          (List.map (fun (name, o) -> (name, o.ind)) runs)));
  Format.printf "@.SPF engine (shared route engine, per run):@.";
  List.iter (fun (name, o) -> pp_spf_stats Format.std_formatter (name, o.spf))
    runs
  end

open Cmdliner

let topology_arg =
  let parse s =
    if List.mem s Script.builtins then Ok s
    else Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let metric_arg =
  let parse s =
    match Metric.kind_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown metric %S" s))
  in
  let print ppf k = Format.pp_print_string ppf (Metric.kind_name k) in
  Arg.conv (parse, print)

(* Numbers the simulators cannot run on are refused here, naming the
   option, with cmdliner's usage exit (124). *)
let int_at_least lo ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s >= %d, got %S" what lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let scale_arg =
  let parse s =
    match float_of_string_opt s with
    | Some x when Traffic_matrix.valid_scale x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a finite scale > 0, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let cmd =
  let topology =
    Arg.(value & opt topology_arg "arpanet"
         & info [ "t"; "topology" ] ~docv:"TOPO"
             ~doc:
               (Printf.sprintf "Builtin scenario: %s."
                  (String.concat ", " Script.builtins)))
  in
  let metric =
    Arg.(value & opt metric_arg Metric.Hn_spf
         & info [ "m"; "metric" ] ~docv:"METRIC"
             ~doc:"Routing metric: min-hop, static-capacity, dspf or hnspf.")
  in
  let compare =
    Arg.(value & flag
         & info [ "c"; "compare" ]
             ~doc:"Run all three metrics on the same traffic side by side.")
  in
  let scale =
    Arg.(value & opt scale_arg 1.0
         & info [ "s"; "scale" ] ~docv:"X" ~doc:"Traffic matrix scale factor.")
  in
  let minutes =
    Arg.(value & opt (int_at_least 1 ~what:"minutes") 20
         & info [ "minutes" ] ~docv:"MIN" ~doc:"Measured simulation minutes.")
  in
  let warmup =
    Arg.(value & opt (int_at_least 0 ~what:"warm-up minutes") 5
         & info [ "warmup" ] ~docv:"MIN" ~doc:"Warm-up minutes excluded from stats.")
  in
  let packet_level =
    Arg.(value & flag
         & info [ "p"; "packet-level"; "packet" ]
             ~doc:"Use the packet-level DES instead of the flow simulator.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE.jsonl"
             ~doc:"Stream every simulator event as JSON Lines to $(docv) \
                   (replayable with $(b,replay) $(docv)).  With $(b,--compare) \
                   the metric name is inserted before the extension.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE.json"
             ~doc:"Write the end-of-run metrics snapshot (counters, gauges, \
                   per-link cost/utilization series, stage timings) to \
                   $(docv).")
  in
  let chrome_trace =
    Arg.(value & opt (some string) None
         & info [ "chrome-trace" ] ~docv:"FILE.trace.json"
             ~doc:"Flight-record the run and write a Chrome trace-event \
                   file to $(docv): the routing-period stages (as in \
                   $(b,--profile)) and the SPF engines' recomputes and \
                   repairs as spans, one track per domain.  \
                   Loadable in Perfetto or chrome://tracing; $(b,replay) \
                   $(docv) prints a digest.  Timestamps are deterministic \
                   sequence numbers unless $(b,--profile) adds a wall \
                   clock.  With $(b,--compare) the metric name is \
                   inserted before the extension.")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Time each routing-period stage (routing period, SPF \
                   refresh, flood and, in the flow simulator, flow \
                   assignment, metrics and accounting) with a wall clock, \
                   count the minor words it allocates, and print the \
                   profile table.  Makes $(b,--metrics-out) and \
                   $(b,--chrome-trace) output nondeterministic (real \
                   durations); without it stage durations and words are \
                   recorded as 0.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let domains =
    let count = int_at_least 0 ~what:"a domain count" in
    let resolve n = Routing_metric.Domain_pool.resolve ?requested:n () in
    Term.(const resolve $ Arg.(value & opt (some count) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Domains used for parallel all-pairs SPF (1 = sequential; \
                   results are identical either way).  $(b,0) sizes to \
                   this machine; unset defers to $(b,ARPANET_DOMAINS) \
                   (same rules) and then 1 — one resolution path shared \
                   with $(b,arpanet_sweep)."))
  in
  let file =
    Arg.(value & opt (some file) None
         & info [ "f"; "file" ] ~docv:"SCENARIO"
             ~doc:"Load topology and demands from a scenario file (see \
                   lib/topology/serial.mli for the format) instead of a \
                   built-in topology.")
  in
  let dump =
    Arg.(value & flag
         & info [ "dump" ]
             ~doc:"Print the selected scenario in the file format and exit \
                   (a starting point for custom scenarios).")
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE"
             ~doc:"Simulate 10 minutes under the selected metric and write a \
                   Graphviz rendering with utilization-colored trunks.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"Log simulator events (link flaps, \
                                         metric switches, update bursts).")
  in
  let check =
    Arg.(value
         & vflag true
             [ (true,
                info [ "check" ]
                  ~doc:"Lint a $(b,--file) scenario before simulating \
                        (S0xx/T0xx passes; the default) and refuse to run \
                        on errors.");
               (false,
                info [ "no-check" ]
                  ~doc:"Skip the pre-run scenario lint.") ])
  in
  let run topology file dump dot metric compare scale minutes warmup
      packet_level seed domains trace_out metrics_out chrome_trace profile
      check verbose =
    setup_logging verbose;
    let metrics =
      if compare then
        [ Metric.Min_hop; Metric.Static_capacity; Metric.D_spf; Metric.Hn_spf ]
      else [ metric ]
    in
    main topology file dump dot metrics scale minutes warmup packet_level seed
      domains trace_out metrics_out chrome_trace profile check
  in
  Cmd.v
    (Cmd.info "arpanet_sim"
       ~doc:"Simulate ARPANET routing under min-hop, D-SPF or HN-SPF")
    Term.(
      const run $ topology $ file $ dump $ dot $ metric $ compare $ scale
      $ minutes $ warmup $ packet_level $ seed $ domains $ trace_out
      $ metrics_out $ chrome_trace $ profile $ check $ verbose)

let () = exit (Cmd.eval cmd)
