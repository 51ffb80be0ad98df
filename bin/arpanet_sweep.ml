(* arpanet_sweep — run a declared grid of simulator experiments.

     dune exec bin/arpanet_sweep.exe -- scenarios/paper_sweep.json
     dune exec bin/arpanet_sweep.exe -- sweep.json -o report.json --csv report.csv
     dune exec bin/arpanet_sweep.exe -- sweep.json --domains 4
     dune exec bin/arpanet_sweep.exe -- sweep.json --shard 0/4 -o shard0.json
     dune exec bin/arpanet_sweep.exe -- sweep.json --merge shard0.json --merge shard1.json
     dune exec bin/arpanet_sweep.exe -- sweep.json --resume -o report.json

   The spec (see Sweep_spec) declares scenario, metric, load-scale and
   seed axes; every grid point runs its own flow simulator and the
   per-point telemetry registries fold into one JSON report (plus an
   optional CSV).  Scenarios are parsed once into shared immutable
   state, points are distributed over a work-stealing domain pool, and
   whole grids can be split across processes (--shard) and stitched
   back together (--merge) or restarted (--resume) — the report's bytes
   never depend on any of it.

   The spec is linted first (the same S1xx diagnostics as
   `arpanet_check --sweep`); errors refuse the run. *)

module Diagnostic = Routing_check.Diagnostic
module Sweep_check = Routing_check.Sweep_check
module Sweep_spec = Routing_sweep.Sweep_spec
module Sweep_engine = Routing_sweep.Sweep_engine
module Domain_pool = Routing_metric.Domain_pool
module Obs_json = Routing_obs.Json
module Tracer = Routing_obs.Tracer
module Trace_export = Routing_obs.Trace_export

(* Reports are written atomically (tmp + rename) so an interrupted run
   never leaves a half-written file for --resume or --merge to trip
   over. *)
let write_text path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

let err fmt = Format.eprintf (fmt ^^ "@.")

let read_report path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Result.Error e
  | text ->
    (match Obs_json.of_string text with
    | Ok json -> Ok json
    | Error e -> Result.Error (Printf.sprintf "%s: %s" path e))

(* --resume: adopt answers from an existing report at [path].  A missing
   file is a fresh start; an unreadable or undecodable one is an S108
   warning and a full rerun — resume never refuses work. *)
let resume_lookup ~quiet path =
  if not (Sys.file_exists path) then None
  else
    let stored =
      match read_report path with
      | Ok json -> Sweep_engine.stored_points json
      | Error e -> Result.Error e
    in
    match stored with
    | Ok pts ->
      let table = Hashtbl.create (List.length pts) in
      List.iter (fun (h, ind) -> Hashtbl.replace table h ind) pts;
      Some (Hashtbl.find_opt table)
    | Result.Error e ->
      if not quiet then
        err "arpanet_sweep: warning: [S108] cannot resume from %s: %s \
             (rerunning every point)" path e;
      None

(* The report's summary views on the console: the route-stability
   ranking when there is something to compare, the located critical-load
   knees whenever a ramp produced them. *)
let print_summary (report : Sweep_engine.report) =
  (match report.rankings with
  | [] | [ _ ] -> ()
  | rankings ->
    Format.printf "route stability (most stable first):@.";
    List.iter
      (fun (r : Sweep_engine.ranking) ->
        Format.printf
          "  %d. %s/%s  score %d  routes %.2f/period  nh-flips %.2f  \
           link-flips %.2f@."
          r.r_rank r.r_scenario
          (Routing_metric.Metric.kind_name r.r_metric)
          r.r_score r.r_route_changes r.r_nh_flips r.r_link_flips)
      rankings);
  List.iter
    (fun (k : Sweep_engine.knee) ->
      Format.printf
        "critical load %s/%s: delay knee at x%g (%.1f ms rtt), throughput \
         knee at x%g (%.3g bps)@."
        k.k_scenario
        (Routing_metric.Metric.kind_name k.k_metric)
        k.k_scale_delay k.k_delay_ms k.k_scale_throughput k.k_throughput_bps)
    report.knees

let run_merge ~quiet ~out ~csv_out ~summary_out spec merge_paths =
  let prep = Sweep_engine.prepare spec in
  let rec read acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest ->
      (match read_report path with
      | Ok json -> read (json :: acc) rest
      | Result.Error e -> Result.Error e)
  in
  match Result.bind (read [] merge_paths) (Sweep_engine.merge prep) with
  | Result.Error e ->
    err "arpanet_sweep: [S108] merge failed: %s" e;
    2
  | Ok report ->
    write_text out (Obs_json.to_string_pretty report.Sweep_engine.json ^ "\n");
    Option.iter (fun path -> write_text path (Sweep_engine.csv report)) csv_out;
    Option.iter
      (fun path -> write_text path (Sweep_engine.summary_csv report))
      summary_out;
    if not quiet then begin
      Format.printf "merge: %d point%s from %d shard%s -> %s@."
        (Array.length report.Sweep_engine.outcomes)
        (if Array.length report.Sweep_engine.outcomes = 1 then "" else "s")
        (List.length merge_paths)
        (if List.length merge_paths = 1 then "" else "s")
        out;
      Option.iter (Format.printf "csv: %s@.") csv_out;
      Option.iter (Format.printf "summary: %s@.") summary_out;
      print_summary report
    end;
    0

let run_sweep ~quiet ~out ~csv_out ~summary_out ~domains ~chrome_trace ~shard
    ~resume spec =
  let t0 = Unix.gettimeofday () in
  (* Untimed clock: the trace orders events by sequence number, so the
     file is deterministic and replay digests are comparable across
     machines.  The report bytes never depend on the tracer. *)
  let tracer =
    match chrome_trace with
    | None -> Tracer.null
    | Some _ -> Tracer.create ~clock:Tracer.Untimed ()
  in
  let prep = Sweep_engine.prepare spec in
  let subset =
    Option.map
      (fun (i, n) -> fun (p : Sweep_engine.point) -> p.index mod n = i)
      shard
  in
  let reuse = if resume then resume_lookup ~quiet out else None in
  let reused = ref 0 in
  let reuse =
    Option.map
      (fun lookup h ->
        let r = lookup h in
        if r <> None then incr reused;
        r)
      reuse
  in
  let report = Sweep_engine.run_prepared ~domains ~tracer ?subset ?reuse prep in
  let elapsed = Unix.gettimeofday () -. t0 in
  write_text out (Obs_json.to_string_pretty report.Sweep_engine.json ^ "\n");
  Option.iter (fun path -> write_text path (Sweep_engine.csv report)) csv_out;
  Option.iter
    (fun path -> write_text path (Sweep_engine.summary_csv report))
    summary_out;
  Option.iter
    (fun path ->
      Trace_export.write_chrome tracer path;
      if not quiet then
        Format.printf "chrome trace: %s (%d domain track(s), %d dropped)@." path
          (Tracer.slots tracer) (Tracer.dropped tracer))
    chrome_trace;
  if not quiet then begin
    let n = Array.length report.Sweep_engine.outcomes in
    let shard_note =
      match shard with
      | None -> ""
      | Some (i, k) ->
        Printf.sprintf " [shard %d/%d of %d]" i k
          (Array.length (Sweep_engine.prepared_points prep))
    in
    let resume_note =
      if !reused > 0 then Printf.sprintf " (%d reused)" !reused else ""
    in
    Format.printf
      "sweep: %d point%s%s%s in %.1f s (%.2f points/s, %d domain%s) -> %s@." n
      (if n = 1 then "" else "s")
      shard_note resume_note elapsed
      (float_of_int (n - !reused) /. Float.max elapsed 1e-9)
      domains
      (if domains = 1 then "" else "s")
      out;
    Option.iter (Format.printf "csv: %s@.") csv_out;
    Option.iter (Format.printf "summary: %s@.") summary_out;
    print_summary report
  end;
  0

let run spec_path out csv_out summary_out domains_arg chrome_trace shard_arg
    merge_paths resume no_check quiet =
  let shard =
    Option.map
      (fun s ->
        match Sweep_spec.shard_of_string s with
        | Ok shard -> Ok shard
        | Result.Error (i : Sweep_spec.issue) ->
          Result.Error (Printf.sprintf "[%s] %s" i.code i.message))
      shard_arg
  in
  match shard with
  | Some (Result.Error msg) ->
    err "arpanet_sweep: %s" msg;
    2
  | _ when merge_paths <> [] && (shard_arg <> None || resume) ->
    err "arpanet_sweep: --merge does not combine with --shard or --resume";
    2
  | _ ->
    let shard =
      match shard with Some (Ok s) -> Some s | _ -> None
    in
    let domains = Domain_pool.resolve ?requested:domains_arg () in
    let diags, spec = Sweep_check.check_file spec_path in
    let blocking =
      List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags
    in
    if diags <> [] && not quiet then
      Diagnostic.pp_report Format.err_formatter diags;
    (match (spec, blocking) with
    | None, _ -> Diagnostic.exit_code diags
    | Some _, _ :: _ when not no_check -> Diagnostic.exit_code diags
    | Some spec, _ ->
      if merge_paths <> [] then
        run_merge ~quiet ~out ~csv_out ~summary_out spec merge_paths
      else
        run_sweep ~quiet ~out ~csv_out ~summary_out ~domains ~chrome_trace
          ~shard ~resume spec)

open Cmdliner

let cmd =
  let spec =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"SWEEP.json"
             ~doc:"Sweep specification: a JSON object with a \
                   $(b,scenarios) list (builtin $(b,arpanet), $(b,milnet), \
                   $(b,two-region) or .scn paths) and optional \
                   $(b,metrics), $(b,scales), \
                   $(b,seeds) (list or {\"from\",\"count\"}), \
                   $(b,periods), $(b,warmup) fields.")
  in
  let out =
    Arg.(value & opt string "sweep_report.json"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Where to write the JSON report (merged telemetry plus \
                   a per-point indicator array).  Written atomically; \
                   with $(b,--resume) this is also the report read back.")
  in
  let csv_out =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Also write one CSV row of Table-1 indicators per grid \
                   point.")
  in
  let summary_out =
    Arg.(value & opt (some string) None
         & info [ "summary" ] ~docv:"FILE"
             ~doc:"Also write the summary CSV: one $(b,ranking) row per \
                   (scenario, metric) pair ordering the metrics by their \
                   route-change counters, plus one $(b,knee) row per \
                   critical-load knee when the spec declares a \
                   $(b,critical_load) ramp.")
  in
  let nonneg_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a domain count >= 0, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let domains =
    Arg.(value & opt (some nonneg_int) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Domains to distribute grid points over.  $(b,0) sizes \
                   to this machine; unset defers to $(b,ARPANET_DOMAINS) \
                   (same rules) and then 1 — one resolution path shared \
                   with $(b,arpanet_sim).  The report is byte-identical \
                   for every value.")
  in
  let chrome_trace =
    Arg.(value & opt (some string) None
         & info [ "chrome-trace" ] ~docv:"FILE.trace.json"
             ~doc:"Flight-record the sweep and write a Chrome trace-event \
                   file to $(docv): one $(b,sweep_point) span per grid \
                   point on the track of the domain that ran it, with the \
                   simulator's routing periods and SPF work nested inside. \
                   Loadable in Perfetto; $(b,replay) $(docv) prints a \
                   digest.  Deterministic (sequence-numbered timestamps).")
  in
  let shard =
    Arg.(value & opt (some string) None
         & info [ "shard" ] ~docv:"I/N"
             ~doc:"Run only grid points whose index is congruent to I \
                   modulo N — one of N processes sweeping the same spec. \
                   Each shard's report is a normal report covering its \
                   subset; stitch them with $(b,--merge).")
  in
  let merge =
    Arg.(value & opt_all file []
         & info [ "merge" ] ~docv:"SHARD.json"
             ~doc:"Do not simulate: fold the given shard reports \
                   (repeatable) into one report for the spec's full grid \
                   and write it to $(b,-o).  Points are matched by hash; \
                   missing or conflicting points are an error.  \
                   Byte-identical to a single-process run of the spec.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Read the existing $(b,-o) report (if any) first and \
                   skip every point whose hash it already answers; only \
                   the rest are simulated.  The rewritten report is \
                   byte-identical to an uninterrupted run.")
  in
  let no_check =
    Arg.(value & flag
         & info [ "no-check" ]
             ~doc:"Run even when the spec lint reports errors (S1xx \
                   diagnostics still print).")
  in
  let quiet =
    Arg.(value & flag
         & info [ "q"; "quiet" ]
             ~doc:"Suppress diagnostics and the summary line; only the \
                   report files are produced.")
  in
  Cmd.v
    (Cmd.info "arpanet_sweep"
       ~doc:"Run a scenario/metric/load/seed sweep grid in parallel"
       ~man:
         [ `S Manpage.s_exit_status;
           `P "0 when the sweep ran; 2 on bad --shard (S107) or a failed \
               --merge/--resume read (S108); otherwise the spec lint's \
               exit code (1 warnings, 2 errors)." ])
    Term.(
      const run $ spec $ out $ csv_out $ summary_out $ domains $ chrome_trace
      $ shard $ merge $ resume $ no_check $ quiet)

let () = exit (Cmd.eval' cmd)
