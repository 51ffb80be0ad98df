open! Import

type scenario = Builtin of string | File of string

type ramp = { ramp_from : float; ramp_to : float; ramp_steps : int }

type t = {
  scenarios : scenario list;
  metrics : Metric.kind list;
  scales : float list;
  seeds : int list;
  periods : int;
  warmup : int;
  critical_load : ramp option;
}

type severity = Error | Warning

type issue = { severity : severity; code : string; message : string }

let error code fmt = Printf.ksprintf (fun message -> { severity = Error; code; message }) fmt

let warning code fmt =
  Printf.ksprintf (fun message -> { severity = Warning; code; message }) fmt

let errors issues = List.filter (fun i -> i.severity = Error) issues

let scenario_name = function Builtin n -> n | File p -> p

let scenario_of_string s =
  if List.mem s Script.builtins then Builtin s else File s

(* ---------------------------------------------------------------- *)
(* Parsing.  The spec is a small JSON object; every shape problem is one
   S100, so a typo'd spec reads as a single actionable message rather
   than a cascade. *)

let ( let* ) = Result.bind

(* The largest grid a spec may describe, and so the largest seed range or
   ramp the parser expands.  The engine labels per-point metrics [%05d]
   and the registry sorts labels as strings, so a report with more points
   would list point 100000 between 10000 and 10001. *)
let max_points = 100_000

let str_list field json =
  match Obs_json.member field json with
  | Error _ -> Ok None
  | Ok (Obs_json.List items) ->
    let* strings =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* s = Obs_json.to_str item in
          Ok (s :: acc))
        (Ok []) items
    in
    Ok (Some (List.rev strings))
  | Ok _ -> Result.Error (Printf.sprintf "%S must be a list of strings" field)

let float_list field json =
  match Obs_json.member field json with
  | Error _ -> Ok None
  | Ok (Obs_json.List items) ->
    let* floats =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* f = Obs_json.to_float item in
          Ok (f :: acc))
        (Ok []) items
    in
    Ok (Some (List.rev floats))
  | Ok _ -> Result.Error (Printf.sprintf "%S must be a list of numbers" field)

let int_field ~default field json =
  match Obs_json.member field json with
  | Error _ -> Ok default
  | Ok v ->
    (match Obs_json.to_int v with
     | Ok n -> Ok n
     | Error _ -> Result.Error (Printf.sprintf "%S must be an integer" field))

(* [seeds] is either an explicit list or a [{"from": n, "count": m}]
   range; ranges keep big sweeps readable.  A range is expanded only
   after the whole spec has parsed ([expand_seeds]). *)
type seed_axis = Seeds of int list | Seed_range of { from : int; count : int }

let seeds_field json =
  match Obs_json.member "seeds" json with
  | Error _ -> Ok (Seeds [ 0 ])
  | Ok (Obs_json.List items) ->
    let* seeds =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match Obs_json.to_int item with
          | Ok n -> Ok (n :: acc)
          | Error _ -> Result.Error "\"seeds\" entries must be integers")
        (Ok []) items
    in
    Ok (Seeds (List.rev seeds))
  | Ok (Obs_json.Obj _ as range) ->
    let* from = int_field ~default:0 "from" range in
    let* count =
      match Obs_json.member "count" range with
      | Error _ -> Result.Error "seed range needs a \"count\" field"
      | Ok v ->
        (match Obs_json.to_int v with
         | Ok n -> Ok n
         | Error _ -> Result.Error "\"count\" must be an integer")
    in
    Ok (Seed_range { from; count })
  | Ok _ -> Result.Error "\"seeds\" must be a list of integers or {\"from\",\"count\"}"

(* The [critical_load] ramp expands into an evenly spaced scale grid at
   parse time, so the engine sees an ordinary scale axis — point hashes,
   shards and resumes all work unchanged.  Degenerate ramps (flagged by
   lint as S109: too few steps, a non-increasing or non-finite interval)
   collapse to their starting scale rather than failing the parse,
   keeping every grid problem in the lint report.  Only an oversized
   ramp is refused, before it is expanded. *)
let ramp_scales r =
  if
    r.ramp_steps >= 2 && Float.is_finite r.ramp_from
    && Float.is_finite r.ramp_to && r.ramp_to > r.ramp_from
  then
    List.init r.ramp_steps (fun i ->
        r.ramp_from
        +. ((r.ramp_to -. r.ramp_from) *. float_of_int i
            /. float_of_int (r.ramp_steps - 1)))
  else [ r.ramp_from ]

let ramp_field json =
  match Obs_json.member "critical_load" json with
  | Error _ -> Ok None
  | Ok (Obs_json.Obj _ as r) ->
    let req field =
      match Obs_json.member field r with
      | Error _ ->
        Result.Error
          (Printf.sprintf "\"critical_load\" needs a %S field" field)
      | Ok v ->
        (match Obs_json.to_float v with
         | Ok f -> Ok f
         | Error _ ->
           Result.Error
             (Printf.sprintf "\"critical_load\" %S must be a number" field))
    in
    let* ramp_from = req "from" in
    let* ramp_to = req "to" in
    let* ramp_steps = int_field ~default:8 "steps" r in
    Ok (Some { ramp_from; ramp_to; ramp_steps })
  | Ok _ ->
    Result.Error "\"critical_load\" must be {\"from\",\"to\",\"steps\"}"

(* Expansion, once the spec has parsed: an axis the parser would have to
   expand past [max_points] is refused (S106) before it is built.  A
   degenerate seed range still parses; lint flags it as S104 so the
   grid-shape report can point at the axis rather than the parser. *)
let expand_seeds = function
  | Seeds seeds -> Ok seeds
  | Seed_range { count; _ } when count <= 0 -> Ok []
  | Seed_range { count; _ } when count > max_points ->
    Result.Error
      (error "S106" "seed range count %d exceeds the %d-point grid limit"
         count max_points)
  | Seed_range { from; count } -> Ok (List.init count (fun i -> from + i))

let expand_ramp r =
  if r.ramp_steps > max_points then
    Result.Error
      (error "S106" "critical_load steps %d exceed the %d-point grid limit"
         r.ramp_steps max_points)
  else Ok (ramp_scales r)

let parse text =
  let shaped =
    let* json =
      match Obs_json.of_string text with
      | Ok j -> Ok j
      | Error e -> Result.Error (Printf.sprintf "not valid JSON: %s" e)
    in
    let* () =
      match json with
      | Obs_json.Obj _ -> Ok ()
      | _ -> Result.Error "spec must be a JSON object"
    in
    let* scenarios = str_list "scenarios" json in
    let* scenarios =
      match scenarios with
      | None -> Result.Error "missing required \"scenarios\" list"
      | Some ss -> Ok (List.map scenario_of_string ss)
    in
    let* metric_names = str_list "metrics" json in
    let* metrics =
      match metric_names with
      | None -> Ok [ Metric.Hn_spf ]
      | Some names ->
        List.fold_left
          (fun acc name ->
            let* acc = acc in
            match Metric.kind_of_name name with
            | Some k -> Ok (k :: acc)
            | None -> Result.Error (Printf.sprintf "unknown metric %S" name))
          (Ok []) names
        |> Result.map List.rev
    in
    let* scales = float_list "scales" json in
    let* critical_load = ramp_field json in
    let* () =
      match (scales, critical_load) with
      | Some _, Some _ ->
        Result.Error
          "\"scales\" and \"critical_load\" are mutually exclusive: the \
           ramp generates the scale axis"
      | _ -> Ok ()
    in
    let* seed_axis = seeds_field json in
    let* periods = int_field ~default:60 "periods" json in
    let* warmup = int_field ~default:0 "warmup" json in
    (* Seeds, and a ramp's scales, are filled in by [expand_*] below once
       the whole spec has parsed. *)
    Ok
      ( { scenarios;
          metrics;
          scales = Option.value scales ~default:[ 1.0 ];
          seeds = [];
          periods;
          warmup;
          critical_load },
        seed_axis )
  in
  match shaped with
  | Result.Error msg -> Result.Error (error "S100" "bad sweep spec: %s" msg)
  | Ok (spec, seed_axis) ->
    let* scales =
      match spec.critical_load with
      | Some r -> expand_ramp r
      | None -> Ok spec.scales
    in
    let* seeds = expand_seeds seed_axis in
    Ok { spec with scales; seeds }

(* ---------------------------------------------------------------- *)
(* Lint.  Every grid problem in one pass, stable codes, so the CLI can
   refuse a bad spec before spawning domains (and [routing_check] can
   surface the same findings). *)

let duplicates ~to_string values =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun v ->
      let key = to_string v in
      if Hashtbl.mem seen key then Some key
      else (
        Hashtbl.add seen key ();
        None))
    values

let axis_issues name ~to_string values =
  let empty =
    if values = [] then [ error "S102" "empty %s axis: the grid has no points" name ]
    else []
  in
  let dups =
    List.map
      (fun v ->
        warning "S103" "duplicate %s %s: the grid repeats identical points" name v)
      (duplicates ~to_string values)
  in
  empty @ dups

let lint_scenario sc =
  match sc with
  | Builtin _ -> []
  | File path ->
    if not (Sys.file_exists path) then
      [ error "S101" "unknown scenario %S: no such builtin or file" path ]
    else (
      match Script.load path with
      | Ok _ -> []
      | Error e -> [ error "S101" "scenario %S does not parse: %s" path e ])

let lint t =
  let scenario_axis =
    axis_issues "scenario" ~to_string:scenario_name t.scenarios
    @ List.concat_map lint_scenario t.scenarios
  in
  let metric_axis = axis_issues "metric" ~to_string:Metric.kind_name t.metrics in
  let scale_axis =
    axis_issues "scale" ~to_string:(Printf.sprintf "%g") t.scales
    @ List.concat_map
        (fun s ->
          if not (Traffic_matrix.valid_scale s) then
            [ error "S105" "scale %g is not a finite positive number" s ]
          else if s > 10. then
            [ warning "S105" "scale %g is outside the modelled range (0, 10]" s ]
          else [])
        t.scales
  in
  let seed_axis =
    axis_issues "seed" ~to_string:string_of_int t.seeds
    @ List.concat_map
        (fun s -> if s < 0 then [ error "S104" "negative seed %d" s ] else [])
        t.seeds
  in
  let seedless =
    let nseeds = List.length (List.sort_uniq Int.compare t.seeds) in
    List.filter_map
      (function
        | Builtin name when nseeds > 1 && not (Script.seeded name) ->
          Some
            (warning "S103"
               "scenario %s ignores the seed: its %d seeds repeat identical \
                points"
               name nseeds)
        | Builtin _ | File _ -> None)
      t.scenarios
  in
  let ramp_axis =
    match t.critical_load with
    | None -> []
    | Some r ->
      (if r.ramp_steps < 3 then
         [ error "S109"
             "critical_load needs at least 3 steps to locate a knee (got %d)"
             r.ramp_steps ]
       else [])
      @ (if not (Float.is_finite r.ramp_from && Float.is_finite r.ramp_to)
         then
           [ error "S109"
               "critical_load ramp ends must be finite numbers: from %g, to %g"
               r.ramp_from r.ramp_to ]
         else if r.ramp_to <= r.ramp_from then
           [ error "S109"
               "critical_load ramp is not increasing: to (%g) <= from (%g)"
               r.ramp_to r.ramp_from ]
         else [])
  in
  let budget =
    (if t.periods <= 0 then [ error "S106" "periods must be positive (got %d)" t.periods ]
     else [])
    @ (if t.warmup < 0 then [ error "S106" "warmup must be non-negative (got %d)" t.warmup ]
       else if t.periods > 0 && t.warmup >= t.periods then
         [ error "S106" "warmup (%d) consumes every period (%d): no measured periods remain"
             t.warmup t.periods ]
       else [])
  in
  let points =
    List.fold_left
      (fun acc len -> acc *. float_of_int len)
      1.
      [ List.length t.scenarios;
        List.length t.metrics;
        List.length t.scales;
        List.length t.seeds ]
  in
  let grid =
    if points > float_of_int max_points then
      [ error "S106" "the grid has %.0f points, more than the %d-point limit"
          points max_points ]
    else []
  in
  scenario_axis @ metric_axis @ scale_axis @ ramp_axis @ seed_axis
  @ seedless @ budget @ grid

(* [--shard I/N]: this process runs grid points whose index ≡ I (mod N).
   Parsed here so the CLI and routing_check agree on the S107 shape. *)
let shard_of_string s =
  match String.index_opt s '/' with
  | None ->
    Result.Error
      (error "S107" "bad shard %S: expected I/N (e.g. 0/4)" s)
  | Some slash ->
    let i_text = String.sub s 0 slash in
    let n_text = String.sub s (slash + 1) (String.length s - slash - 1) in
    (match (int_of_string_opt i_text, int_of_string_opt n_text) with
    | None, _ | _, None ->
      Result.Error (error "S107" "bad shard %S: expected I/N (e.g. 0/4)" s)
    | Some _, Some n when n < 1 ->
      Result.Error (error "S107" "bad shard %S: N must be at least 1" s)
    | Some i, Some n when i < 0 || i >= n ->
      Result.Error
        (error "S107" "bad shard %S: I must be in [0, %d)" s n)
    | Some i, Some n -> Ok (i, n))

let lint_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> ([ error "S100" "cannot read sweep spec: %s" e ], None)
  | text ->
    (match parse text with
     | Result.Error issue -> ([ issue ], None)
     | Ok t -> (lint t, Some t))

let load path =
  let issues, t = lint_file path in
  match errors issues with
  | first :: _ -> Result.Error (Printf.sprintf "[%s] %s" first.code first.message)
  | [] ->
    (match t with
     | Some t -> Ok t
     | None -> Result.Error "unreadable sweep spec")
