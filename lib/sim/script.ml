open! Import
module Serial = Routing_topology.Serial
module Arpanet = Routing_topology.Arpanet
module Milnet = Routing_topology.Milnet
module Generators = Routing_topology.Generators

type action =
  | Link_down of string * string
  | Link_up of string * string
  | Set_metric of Metric.kind
  | Scale_traffic of float
  | Adaptive_sources of bool

type event = { at_s : float; action : action; line : int }

type t = {
  graph : Graph.t;
  traffic : Traffic_matrix.t;
  events : event list;
}

type error_kind =
  | Syntax
  | Unknown_node of string
  | No_trunk of string * string

type error = { line : int; kind : error_kind; message : string }

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let is_event_line line =
  let line = String.trim (strip_comment line) in
  String.length line >= 3 && String.sub line 0 3 = "at "

let parse_action = function
  | [ "link-down"; a; b ] -> Ok (Link_down (a, b))
  | [ "link-up"; a; b ] -> Ok (Link_up (a, b))
  | [ "metric"; name ] -> (
    match Metric.kind_of_name name with
    | Some k -> Ok (Set_metric k)
    | None -> Error (Printf.sprintf "unknown metric %S" name))
  | [ "scale"; x ] -> (
    match float_of_string_opt x with
    | Some f when Float.is_finite f && f >= 0. -> Ok (Scale_traffic f)
    | _ -> Error (Printf.sprintf "bad scale %S" x))
  | [ "adaptive"; "on" ] -> Ok (Adaptive_sources true)
  | [ "adaptive"; "off" ] -> Ok (Adaptive_sources false)
  | other -> Error (Printf.sprintf "unknown action %S" (String.concat " " other))

let parse_event_line ~line:number line =
  let fields =
    String.split_on_char ' '
      (String.map (function '\t' -> ' ' | c -> c) (strip_comment line))
    |> List.filter (fun s -> String.length s > 0)
  in
  match fields with
  | "at" :: time :: action -> (
    match float_of_string_opt time with
    | Some at_s when Float.is_finite at_s && at_s >= 0. -> (
      match parse_action action with
      | Ok action -> Ok { at_s; action; line = number }
      | Error e -> Error e)
    | _ -> Error (Printf.sprintf "bad time %S" time))
  | _ -> Error "malformed event line"

(* Cross-reference an event's node and trunk names against the parsed
   topology, so misspellings surface at parse time with a line number
   rather than as a mid-run [Invalid_argument]. *)
let check_references graph (e : event) =
  match e.action with
  | Set_metric _ | Scale_traffic _ | Adaptive_sources _ -> []
  | Link_down (a, b) | Link_up (a, b) -> (
    let missing =
      List.filter_map
        (fun name ->
          match Graph.node_by_name graph name with
          | Some _ -> None
          | None ->
            Some
              { line = e.line;
                kind = Unknown_node name;
                message = Printf.sprintf "unknown node %S" name })
        [ a; b ]
    in
    match missing with
    | _ :: _ -> missing
    | [] ->
      let src = Option.get (Graph.node_by_name graph a) in
      let dst = Option.get (Graph.node_by_name graph b) in
      if Graph.find_link graph ~src ~dst = None then
        [ { line = e.line;
            kind = No_trunk (a, b);
            message = Printf.sprintf "no trunk %s-%s" a b } ]
      else [])

let lint text =
  let lines = String.split_on_char '\n' text in
  let events = ref [] in
  let errors = ref [] in
  (* Blank out event lines (rather than dropping them) so the serial
     section keeps its original line numbering. *)
  let rest =
    List.mapi
      (fun index line ->
        if is_event_line line then begin
          (match parse_event_line ~line:(index + 1) line with
          | Ok e -> events := e :: !events
          | Error message ->
            errors := { line = index + 1; kind = Syntax; message } :: !errors);
          ""
        end
        else line)
      lines
  in
  let serial_errors, (graph, traffic) =
    Serial.lint (String.concat "\n" rest)
  in
  List.iter
    (fun (line, message) ->
      errors := { line; kind = Syntax; message } :: !errors)
    serial_errors;
  let events = List.rev !events in
  List.iter
    (fun e -> List.iter (fun err -> errors := err :: !errors) (check_references graph e))
    events;
  let errors = List.sort (fun a b -> compare (a.line, a.message) (b.line, b.message)) !errors in
  ( errors,
    { graph;
      traffic;
      events = List.stable_sort (fun a b -> Float.compare a.at_s b.at_s) events } )

let parse text =
  match lint text with
  | [], t -> Ok t
  | { line; message; _ } :: _, _ ->
    Error (Printf.sprintf "line %d: %s" line message)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error message -> Error message

let trunk_both t a b =
  let named name =
    match Graph.node_by_name t.graph name with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Script: unknown node %S" name)
  in
  let src = named a and dst = named b in
  match Graph.find_link t.graph ~src ~dst with
  | Some l -> [ l.Link.id; l.Link.reverse ]
  | None -> invalid_arg (Printf.sprintf "Script: no trunk %s-%s" a b)

let apply t sim = function
  | Link_down (a, b) ->
    List.iter (fun lid -> Flow_sim.set_link_up sim lid false) (trunk_both t a b)
  | Link_up (a, b) ->
    List.iter (fun lid -> Flow_sim.set_link_up sim lid true) (trunk_both t a b)
  | Set_metric kind -> Flow_sim.switch_metric sim kind
  | Scale_traffic factor ->
    Flow_sim.set_traffic sim (Traffic_matrix.scale t.traffic factor)
  | Adaptive_sources on -> Flow_sim.set_adaptive_sources sim on

(* Events are sorted by time, so the due ones are a prefix of what is
   pending. *)
let rec fire_due t sim ~due = function
  | e :: rest when e.at_s <= due ->
    apply t sim e.action;
    fire_due t sim ~due rest
  | rest -> rest

(* A period with no event due allocates nothing here, and without
   [on_period] none is spent on a stats record either. *)
let run ?domains ?telemetry ?tracer ?(metric = Metric.Hn_spf) ?on_period t
    ~periods =
  let sim = Flow_sim.create ?domains ?telemetry ?tracer t.graph metric t.traffic in
  let pending = ref t.events in
  for period = 0 to periods - 1 do
    let due = (float_of_int period *. Units.routing_period_s) +. 1e-9 in
    (match !pending with
    | e :: _ when e.at_s <= due -> pending := fire_due t sim ~due !pending
    | _ -> ());
    match on_period with
    | None -> Flow_sim.tick sim
    | Some f -> f sim (Flow_sim.step sim)
  done;
  sim

(* The builtin scenarios: each entry says whether its demand reads the
   seed, and builds its topology afresh with its demand on that
   topology. *)
let catalogue =
  [ ( "arpanet",
      ( true,
        fun () ->
          let g = Arpanet.topology () in
          (g, fun seed -> Arpanet.peak_traffic (Rng.create seed) g) ) );
    ( "milnet",
      ( true,
        fun () ->
          let g = Milnet.topology () in
          (g, fun seed -> Milnet.peak_traffic (Rng.create seed) g) ) );
    ( "two-region",
      ( false,
        fun () ->
          let g, _ = Generators.two_region () in
          (g, fun _ -> Generators.two_region_traffic g) ) ) ]

let builtins = List.map fst catalogue

let builtin name =
  Option.map (fun (_, build) -> build ()) (List.assoc_opt name catalogue)

let seeded name =
  match List.assoc_opt name catalogue with
  | Some (seeded, _) -> seeded
  | None -> false
