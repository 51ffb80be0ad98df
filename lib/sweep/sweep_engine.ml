open! Import

type point = {
  index : int;
  scenario : string;
  metric : Metric.kind;
  scale : float;
  seed : int;
}

type outcome = { point : point; hash : string; indicators : Measure.indicators }

type ranking = {
  r_scenario : string;
  r_metric : Metric.kind;
  r_rank : int;
  r_score : int;
  r_route_changes : float;
  r_nh_flips : float;
  r_link_flips : float;
}

type knee = {
  k_scenario : string;
  k_metric : Metric.kind;
  k_scale_delay : float;
  k_scale_throughput : float;
  k_delay_ms : float;
  k_throughput_bps : float;
}

type report = {
  outcomes : outcome array;
  json : Obs_json.t;
  rankings : ranking list;
  knees : knee list;
}

let points (spec : Sweep_spec.t) =
  (* Fixed axis nesting — scenario outermost, seed innermost — so a
     spec always enumerates the same grid in the same order no matter
     how the run is parallelized. *)
  let acc = ref [] in
  let index = ref 0 in
  List.iter
    (fun sc ->
      let scenario = Sweep_spec.scenario_name sc in
      List.iter
        (fun metric ->
          List.iter
            (fun scale ->
              List.iter
                (fun seed ->
                  acc := { index = !index; scenario; metric; scale; seed } :: !acc;
                  incr index)
                spec.seeds)
            spec.scales)
        spec.metrics)
    spec.scenarios;
  List.rev !acc

(* ---------------------------------------------------------------- *)
(* Point identity.  A point's hash names the exact work it stands for —
   scenario *content* (not just its path), metric, scale, seed and the
   period budget — and deliberately nothing about the grid it sits in,
   so shard files survive re-sharding and a resumed run survives adding
   axes to the spec.  MD5 (stdlib [Digest]) is plenty: this is a cache
   key, not a security boundary. *)

let hash_version = "arpanet-sweep-point-v1"

let point_hash ~scenario_digest (spec : Sweep_spec.t) p =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ hash_version;
            scenario_digest;
            p.scenario;
            Metric.kind_name p.metric;
            Printf.sprintf "%h" p.scale;
            string_of_int p.seed;
            string_of_int spec.periods;
            string_of_int spec.warmup ]))

(* ---------------------------------------------------------------- *)
(* Parse-once preparation.  Everything domains share is built here,
   sequentially, and never written afterwards: scripts are immutable
   (a builtin topology is a script with no events), and the
   per-(scenario, seed) traffic templates are private to the tables
   until [prepare] returns.  Per point the only remaining work besides
   the simulation itself is one [Traffic_matrix.scale] — a fresh
   private matrix, so scripted link/traffic events cannot leak between
   concurrently running points. *)

type prepared = {
  spec : Sweep_spec.t;
  pts : point array;
  hashes : string array;  (* hashes.(i) belongs to pts.(i) *)
  scripts : (string, Script.t) Hashtbl.t;  (* scenario name -> script *)
  templates : (string * int, Traffic_matrix.t) Hashtbl.t;
      (* (scenario, seed) -> unscaled demand template *)
}

let prepared_points prep = prep.pts

let point_hashes prep = prep.hashes

(* Per-seed demand jitter (±10 %, visiting flows in the matrix's
   deterministic iteration order) turns one scenario file into a small
   family of comparable traffic realisations; the point's load scale
   composes on top at dispatch time.  Scripted [scale] events stay
   relative to these demands. *)
let jittered traffic seed =
  let rng = Rng.create seed in
  let template = Traffic_matrix.create ~nodes:(Traffic_matrix.nodes traffic) in
  Traffic_matrix.iter traffic (fun ~src ~dst demand ->
      let jitter = Rng.uniform rng ~lo:0.9 ~hi:1.1 in
      Traffic_matrix.set template ~src ~dst (demand *. jitter));
  template

let prepare (spec : Sweep_spec.t) =
  let pts = Array.of_list (points spec) in
  let scripts = Hashtbl.create 4 in
  let digests = Hashtbl.create 4 in
  let template_of = Hashtbl.create 4 in (* scenario -> seed -> template *)
  List.iter
    (fun sc ->
      let name = Sweep_spec.scenario_name sc in
      if not (Hashtbl.mem digests name) then
        match sc with
        | Sweep_spec.Builtin b ->
          (* An event-free script; its own traffic stays empty, since
             every point runs on its seed's demand. *)
          let graph, demand =
            match Script.builtin b with
            | Some built -> built
            | None ->
              invalid_arg (Printf.sprintf "Sweep_engine: unknown builtin %S" b)
          in
          let traffic = Traffic_matrix.create ~nodes:(Graph.node_count graph) in
          Hashtbl.add scripts name { Script.graph; traffic; events = [] };
          Hashtbl.add template_of name demand;
          Hashtbl.add digests name ("builtin:" ^ b)
        | Sweep_spec.File path ->
          let text = In_channel.with_open_text path In_channel.input_all in
          let script =
            match Script.parse text with
            | Ok s -> s
            | Error e ->
              invalid_arg (Printf.sprintf "Sweep_engine: scenario %S: %s" name e)
          in
          Hashtbl.add scripts name script;
          Hashtbl.add template_of name (jittered script.traffic);
          Hashtbl.add digests name (Digest.to_hex (Digest.string text)))
    spec.scenarios;
  let templates = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      let key = (p.scenario, p.seed) in
      if not (Hashtbl.mem templates key) then
        Hashtbl.add templates key (Hashtbl.find template_of p.scenario p.seed))
    pts;
  let hashes =
    Array.map
      (fun p -> point_hash ~scenario_digest:(Hashtbl.find digests p.scenario) spec p)
      pts
  in
  { spec; pts; hashes; scripts; templates }

(* ---------------------------------------------------------------- *)
(* Running points.  Each point's simulator is private — its scenario's
   script replayed on one fresh scaled matrix — and runs with
   [~domains:1] so pools never nest. *)

let run_point ?tracer prep i =
  let p = prep.pts.(i) in
  let script = Hashtbl.find prep.scripts p.scenario in
  let template = Hashtbl.find prep.templates (p.scenario, p.seed) in
  let traffic = Traffic_matrix.scale template p.scale in
  let sim =
    Script.run ~domains:1 ?tracer ~metric:p.metric { script with traffic }
      ~periods:prep.spec.periods
  in
  let indicators = Flow_sim.indicators sim ~skip:prep.spec.warmup () in
  { point = p; hash = prep.hashes.(i); indicators }

(* ---------------------------------------------------------------- *)
(* Report assembly.  Per-point telemetry registries are a pure function
   of (point index, indicators) — [Measure.export] under a point label —
   so they are regenerated here rather than carried through shard files
   or resumes, and merged in point-index order: the report's bytes
   depend only on which points it covers, never on the domain count,
   the shard layout, or the order workers finished. *)

let point_registry p indicators =
  let registry = Obs_metrics.create () in
  Measure.export
    ~labels:[ ("point", Printf.sprintf "%05d" p.index) ]
    registry indicators;
  registry

let outcome_json o =
  Obs_json.Obj
    [ ("index", Obs_json.Int o.point.index);
      ("scenario", Obs_json.String o.point.scenario);
      ("metric", Obs_json.String (Metric.kind_name o.point.metric));
      ("scale", Obs_json.Float o.point.scale);
      ("seed", Obs_json.Int o.point.seed);
      ("hash", Obs_json.String o.hash);
      ("indicators", Measure.to_json o.indicators)
    ]

(* ---------------------------------------------------------------- *)
(* Summary views, computed purely from (spec, outcomes) so merged,
   sharded and resumed reports carry byte-identical sections. *)

(* Outcomes grouped by (scenario, metric), groups and members both in
   point-index order. *)
let outcome_groups outcomes =
  let table = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun o ->
      let key = (o.point.scenario, o.point.metric) in
      match Hashtbl.find_opt table key with
      | Some members -> members := o :: !members
      | None ->
        Hashtbl.add table key (ref [ o ]);
        order := key :: !order)
    outcomes;
  List.rev_map
    (fun key -> (key, List.rev !(Hashtbl.find table key)))
    !order
  |> List.rev

(* Rzepka & Chołda-style stability rankings: mean the three route-change
   counters per (scenario, metric), competition-rank each counter
   (1 + strictly-better count), and order by total score — the summary
   view of which metric churns routes least.  Ties keep spec order. *)
let rankings_of_outcomes outcomes =
  let mean f members =
    let sum = List.fold_left (fun s o -> s +. f o.indicators) 0. members in
    sum /. float_of_int (List.length members)
  in
  let rows =
    List.map
      (fun ((scenario, metric), members) ->
        ( scenario,
          metric,
          mean (fun i -> i.Measure.route_changes_per_period) members,
          mean (fun i -> i.Measure.next_hop_flips_per_period) members,
          mean (fun i -> i.Measure.link_flips_per_period) members ))
      (outcome_groups outcomes)
  in
  let rank_of value values =
    1 + List.length (List.filter (fun v -> v < value) values)
  in
  let col f = List.map f rows in
  let scored =
    List.map
      (fun (scenario, metric, rc, nh, lf) ->
        let score =
          rank_of rc (col (fun (_, _, v, _, _) -> v))
          + rank_of nh (col (fun (_, _, _, v, _) -> v))
          + rank_of lf (col (fun (_, _, _, _, v) -> v))
        in
        (score, scenario, metric, rc, nh, lf))
      rows
  in
  let sorted =
    List.stable_sort (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> compare a b)
      scored
  in
  List.mapi
    (fun pos (score, scenario, metric, rc, nh, lf) ->
      { r_scenario = scenario;
        r_metric = metric;
        r_rank = pos + 1;
        r_score = score;
        r_route_changes = rc;
        r_nh_flips = nh;
        r_link_flips = lf })
    sorted

(* Knee of a monotone-ish response curve: the point farthest (vertically,
   after normalizing both axes to [0,1]) from the chord between the
   curve's endpoints — the standard max-distance knee.  First maximal
   point wins, so ties resolve to the smallest scale. *)
let knee_of_curve xs ys =
  let n = Array.length xs in
  let dx = xs.(n - 1) -. xs.(0) and dy = ys.(n - 1) -. ys.(0) in
  let best = ref 0 and best_d = ref neg_infinity in
  for i = 0 to n - 1 do
    let xhat = (xs.(i) -. xs.(0)) /. dx in
    let yhat = if dy = 0. then 0. else (ys.(i) -. ys.(0)) /. dy in
    let d = Float.abs (yhat -. xhat) in
    if d > !best_d then begin
      best := i;
      best_d := d
    end
  done;
  (xs.(!best), ys.(!best))

(* The critical-load phase study: along a [critical_load] demand ramp,
   delay stays flat then turns up (its knee: where queueing takes over)
   while delivered throughput climbs then flattens (its knee: where the
   network saturates).  Per (scenario, metric) the per-scale seed means
   form the two curves; [knee_of_curve] locates each transition.  Only
   computed when the spec declared a ramp and at least 3 distinct scales
   are present. *)
let knees_of_outcomes (spec : Sweep_spec.t) outcomes =
  if spec.critical_load = None then []
  else
    List.filter_map
      (fun ((scenario, metric), members) ->
        let by_scale = Hashtbl.create 8 in
        let scale_order = ref [] in
        List.iter
          (fun o ->
            match Hashtbl.find_opt by_scale o.point.scale with
            | Some cell -> cell := o :: !cell
            | None ->
              Hashtbl.add by_scale o.point.scale (ref [ o ]);
              scale_order := o.point.scale :: !scale_order)
          members;
        let scales = List.sort compare !scale_order in
        if List.length scales < 3 then None
        else begin
          let mean f scale =
            let os = !(Hashtbl.find by_scale scale) in
            List.fold_left (fun s o -> s +. f o.indicators) 0. os
            /. float_of_int (List.length os)
          in
          let xs = Array.of_list scales in
          let delay =
            Array.of_list
              (List.map (mean (fun i -> i.Measure.round_trip_delay_ms)) scales)
          in
          let thru =
            Array.of_list
              (List.map
                 (mean (fun i -> i.Measure.internode_traffic_bps))
                 scales)
          in
          let k_scale_delay, k_delay_ms = knee_of_curve xs delay in
          let k_scale_throughput, k_throughput_bps = knee_of_curve xs thru in
          Some
            { k_scenario = scenario;
              k_metric = metric;
              k_scale_delay;
              k_scale_throughput;
              k_delay_ms;
              k_throughput_bps }
        end)
      (outcome_groups outcomes)

let ranking_json r =
  Obs_json.Obj
    [ ("scenario", Obs_json.String r.r_scenario);
      ("metric", Obs_json.String (Metric.kind_name r.r_metric));
      ("rank", Obs_json.Int r.r_rank);
      ("score", Obs_json.Int r.r_score);
      ("route_changes_per_period", Obs_json.Float r.r_route_changes);
      ("next_hop_flips_per_period", Obs_json.Float r.r_nh_flips);
      ("link_flips_per_period", Obs_json.Float r.r_link_flips)
    ]

let knee_json k =
  Obs_json.Obj
    [ ("scenario", Obs_json.String k.k_scenario);
      ("metric", Obs_json.String (Metric.kind_name k.k_metric));
      ("knee_scale_delay", Obs_json.Float k.k_scale_delay);
      ("knee_scale_throughput", Obs_json.Float k.k_scale_throughput);
      ("round_trip_delay_ms_at_knee", Obs_json.Float k.k_delay_ms);
      ("internode_traffic_bps_at_knee", Obs_json.Float k.k_throughput_bps)
    ]

let report_of_outcomes (spec : Sweep_spec.t) outcomes =
  let master = Obs_metrics.create () in
  Obs_metrics.set_meta master "tool" "arpanet_sweep";
  Obs_metrics.set_meta master "points" (string_of_int (Array.length outcomes));
  Obs_metrics.set_meta master "periods" (string_of_int spec.periods);
  Obs_metrics.set_meta master "warmup" (string_of_int spec.warmup);
  Array.iter
    (fun o -> Obs_metrics.merge ~into:master (point_registry o.point o.indicators))
    outcomes;
  let rankings = rankings_of_outcomes outcomes in
  let knees = knees_of_outcomes spec outcomes in
  (* Extra sections ride alongside "points"; [stored_points] reads only
     "points", so shards, merges and resumes are oblivious to them and
     every report path regenerates them from the same outcomes. *)
  let json =
    Obs_metrics.to_json master
      ~extra:
        (( "points",
           Obs_json.List (Array.to_list (Array.map outcome_json outcomes)) )
         :: ( "route_change_rankings",
              Obs_json.List (List.map ranking_json rankings) )
         ::
         (match knees with
          | [] -> []
          | ks -> [ ("critical_load", Obs_json.List (List.map knee_json ks)) ]))
  in
  { outcomes; json; rankings; knees }

(* ---------------------------------------------------------------- *)

let run_prepared ?(domains = Domain_pool.resolve ())
    ?(tracer = Tracer.null) ?subset ?reuse prep =
  let selected =
    match subset with
    | None -> Array.init (Array.length prep.pts) Fun.id
    | Some keep ->
      Array.of_list
        (List.filter (fun i -> keep prep.pts.(i))
           (List.init (Array.length prep.pts) Fun.id))
  in
  let slots = Array.make (Array.length selected) None in
  (* Points whose hash the caller already has an answer for are filled
     in up front and never dispatched — this is what makes [--resume]
     skip finished work. *)
  let todo =
    match reuse with
    | None -> Array.mapi (fun s i -> (s, i)) selected
    | Some lookup ->
      let pending = ref [] in
      Array.iteri
        (fun s i ->
          match lookup prep.hashes.(i) with
          | Some indicators ->
            slots.(s) <-
              Some { point = prep.pts.(i); hash = prep.hashes.(i); indicators }
          | None -> pending := (s, i) :: !pending)
        selected;
      Array.of_list (List.rev !pending)
  in
  let n = Array.length todo in
  (* Each point's whole simulation is one span on the track of whichever
     domain ran it, index range in the args — Perfetto shows the sweep's
     work distribution directly. *)
  let tr_point = Tracer.intern tracer "sweep_point" in
  let one () k =
    let s, i = todo.(k) in
    Tracer.span_begin_range tracer tr_point ~lo:i ~hi:(i + 1);
    let o = run_point ~tracer prep i in
    Tracer.span_end tracer tr_point;
    slots.(s) <- Some o
  in
  (if domains > 1 && n > 1 then (
     let pool = Domain_pool.create domains in
     if Tracer.enabled tracer then
       Domain_pool.set_probe pool (Some (Tracer.pool_probe tracer));
     (* Grid points are wildly uneven — a hier10k point can cost 1000×
        an arpanet toy — so each claim is one point (grain 1): a domain
        that lands a heavy point keeps it while the others drain and
        then steal the rest of its share.  [one] is passed by name so
        the D0xx lint resolves its body. *)
     Fun.protect
       ~finally:(fun () -> Domain_pool.shutdown pool)
       (fun () -> Domain_pool.parallel_for pool ~init:ignore n one))
   else
     for k = 0 to n - 1 do
       one () k
     done);
  let outcomes =
    Array.map
      (function
        | Some o -> o
        | None -> invalid_arg "Sweep_engine: point did not complete")
      slots
  in
  report_of_outcomes prep.spec outcomes

let run ?domains ?tracer spec = run_prepared ?domains ?tracer (prepare spec)

(* ---------------------------------------------------------------- *)
(* Reading reports back.  Shards and resumes only need each stored
   point's (hash, indicators): registries regenerate from indicators,
   and grid coordinates come from the prepared spec, not the file.
   Floats survive the trip exactly — the printer emits the shortest
   representation that round-trips — so a merged or resumed report is
   byte-identical to an uninterrupted run. *)

let ( let* ) = Result.bind

let stored_points json =
  let* pts =
    match Obs_json.member "points" json with
    | Ok (Obs_json.List pts) -> Ok pts
    | Ok _ -> Result.Error "report \"points\" is not a list"
    | Error _ -> Result.Error "report has no \"points\" list"
  in
  let rec decode k acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest ->
      let ctx msg = Printf.sprintf "points[%d]: %s" k msg in
      let* hash =
        match Obs_json.member "hash" item with
        | Ok (Obs_json.String h) -> Ok h
        | Ok _ -> Result.Error (ctx "\"hash\" is not a string")
        | Error _ -> Result.Error (ctx "missing \"hash\"")
      in
      let* indicators =
        match Obs_json.member "indicators" item with
        | Ok ind -> Result.map_error ctx (Measure.of_json ind)
        | Error _ -> Result.Error (ctx "missing \"indicators\"")
      in
      decode (k + 1) ((hash, indicators) :: acc) rest
  in
  decode 0 [] pts

(* ---------------------------------------------------------------- *)
(* Merging shard reports.  Points are matched purely by hash; the
   prepared spec supplies order and coordinates, so merge order — and
   any intermediate partial merge — cannot change the result. *)

let merge ?(allow_partial = false) prep shards =
  let table = Hashtbl.create (Array.length prep.pts) in
  let known = Hashtbl.create (Array.length prep.pts) in
  Array.iter (fun h -> Hashtbl.replace known h ()) prep.hashes;
  let rec gather k = function
    | [] -> Ok ()
    | shard :: rest ->
      let* pts = Result.map_error (Printf.sprintf "shard %d: %s" k) (stored_points shard) in
      let* () =
        List.fold_left
          (fun acc (hash, indicators) ->
            let* () = acc in
            if not (Hashtbl.mem known hash) then
              Result.Error
                (Printf.sprintf
                   "shard %d: point %s is not in this spec's grid (spec or \
                    scenario changed since the shard was written?)"
                   k hash)
            else
              match Hashtbl.find_opt table hash with
              | None ->
                Hashtbl.add table hash indicators;
                Ok ()
              | Some prev ->
                (* Runs are deterministic, so a point appearing in two
                   shards must agree; disagreement means the shards came
                   from different builds or scenarios. *)
                if
                  Obs_json.to_string (Measure.to_json prev)
                  = Obs_json.to_string (Measure.to_json indicators)
                then Ok ()
                else
                  Result.Error
                    (Printf.sprintf
                       "shard %d: point %s conflicts with an earlier shard" k
                       hash))
          (Ok ()) pts
      in
      gather (k + 1) rest
  in
  let* () = gather 0 shards in
  let present = ref [] in
  let missing = ref 0 in
  Array.iteri
    (fun i p ->
      match Hashtbl.find_opt table prep.hashes.(i) with
      | Some indicators ->
        present := { point = p; hash = prep.hashes.(i); indicators } :: !present
      | None -> incr missing)
    prep.pts;
  if !missing > 0 && not allow_partial then
    Result.Error
      (Printf.sprintf "%d of %d grid points missing from the given shards"
         !missing (Array.length prep.pts))
  else Ok (report_of_outcomes prep.spec (Array.of_list (List.rev !present)))

(* ---------------------------------------------------------------- *)

let csv report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (String.concat ","
       ([ "index"; "scenario"; "metric"; "scale"; "seed" ]
        @ List.map fst Measure.fields));
  Buffer.add_char buf '\n';
  let num x = Obs_json.to_string (Obs_json.Float x) in
  Array.iter
    (fun o ->
      [ string_of_int o.point.index; o.point.scenario;
        Metric.kind_name o.point.metric; num o.point.scale;
        string_of_int o.point.seed ]
      @ List.map (fun (_, get) -> num (get o.indicators)) Measure.fields
      |> String.concat "," |> Buffer.add_string buf;
      Buffer.add_char buf '\n')
    report.outcomes;
  Buffer.contents buf

let summary_columns =
  [ "kind"; "scenario"; "metric"; "rank"; "score";
    "route_changes_per_period"; "next_hop_flips_per_period";
    "link_flips_per_period"; "knee_scale_delay"; "knee_scale_throughput";
    "round_trip_delay_ms_at_knee"; "internode_traffic_bps_at_knee" ]

let summary_csv report =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (String.concat "," summary_columns);
  Buffer.add_char buf '\n';
  let num x = Obs_json.to_string (Obs_json.Float x) in
  List.iter
    (fun r ->
      [ "ranking"; r.r_scenario; Metric.kind_name r.r_metric;
        string_of_int r.r_rank; string_of_int r.r_score;
        num r.r_route_changes; num r.r_nh_flips; num r.r_link_flips;
        ""; ""; ""; "" ]
      |> String.concat "," |> Buffer.add_string buf;
      Buffer.add_char buf '\n')
    report.rankings;
  List.iter
    (fun k ->
      [ "knee"; k.k_scenario; Metric.kind_name k.k_metric; ""; ""; ""; "";
        ""; num k.k_scale_delay; num k.k_scale_throughput;
        num k.k_delay_ms; num k.k_throughput_bps ]
      |> String.concat "," |> Buffer.add_string buf;
      Buffer.add_char buf '\n')
    report.knees;
  Buffer.contents buf
