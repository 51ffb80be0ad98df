let clock_name t =
  match Tracer.clock t with
  | Tracer.Untimed -> "untimed"
  | Tracer.Wall -> "wall"
  | Tracer.Fn _ -> "custom"

(* Untimed timestamps are per-track sequence numbers: keep them integral
   so the export is byte-deterministic.  Wall/custom clocks are seconds;
   Chrome wants microseconds. *)
let ts_json t ts =
  match Tracer.clock t with
  | Tracer.Untimed -> Json.Int (int_of_float ts)
  | Tracer.Wall | Tracer.Fn _ -> Json.Float (ts *. 1e6)

let chrome_json t =
  let events = ref [] in
  let push e = events := e :: !events in
  push
    (Json.Obj
       [ ("name", Json.String "process_name");
         ("ph", Json.String "M");
         ("pid", Json.Int 0);
         ("tid", Json.Int 0);
         ("args", Json.Obj [ ("name", Json.String "arpanet") ]) ]);
  let nslots = Tracer.slots t in
  for slot = 0 to nslots - 1 do
    push
      (Json.Obj
         [ ("name", Json.String "thread_name");
           ("ph", Json.String "M");
           ("pid", Json.Int 0);
           ("tid", Json.Int slot);
           ("args",
            Json.Obj [ ("name", Json.String (Printf.sprintf "domain%d" slot)) ])
         ])
  done;
  for slot = 0 to nslots - 1 do
    Tracer.iter_slot t slot (fun ~ts ~kind ~name ~a ~b ->
        let common suffix =
          ("name", Json.String (Tracer.name t name))
          :: ("ph",
              Json.String
                (match kind with
                | Tracer.Begin -> "B"
                | Tracer.End -> "E"
                | Tracer.Instant -> "i"
                | Tracer.Counter -> "C"))
          :: ("pid", Json.Int 0)
          :: ("tid", Json.Int slot)
          :: ("ts", ts_json t ts)
          :: suffix
        in
        match kind with
        | Tracer.Begin ->
          push
            (Json.Obj
               (common
                  (if a = 0 && b = 0 then []
                   else
                     [ ("args",
                        Json.Obj [ ("lo", Json.Int a); ("hi", Json.Int b) ]) ])))
        | Tracer.End -> push (Json.Obj (common []))
        | Tracer.Instant ->
          push
            (Json.Obj
               (common
                  [ ("s", Json.String "t");
                    ("args", Json.Obj [ ("v", Json.Int a) ]) ]))
        | Tracer.Counter ->
          push
            (Json.Obj (common [ ("args", Json.Obj [ ("value", Json.Int a) ]) ])))
  done;
  let per_track =
    List.init nslots (fun slot -> Json.Int (Tracer.slot_dropped t slot))
  in
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ms");
      ("otherData",
       Json.Obj
         [ ("clock", Json.String (clock_name t));
           ("capacity", Json.Int (Tracer.capacity t));
           ("dropped", Json.Int (Tracer.dropped t));
           ("droppedPerTrack", Json.List per_track) ]) ]

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (chrome_json t));
      output_char oc '\n')

type digest = {
  tracks : (int * int) list;
  span_totals : (string * float) list;
  total_events : int;
  dropped : int;
}

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> 0.

let digest json =
  match Json.member "traceEvents" json with
  | Error e -> Error e
  | Ok (Json.List evs) ->
    let counts : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
    let stacks : (int, (string * float) list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let totals : (string, float ref) Hashtbl.t = Hashtbl.create 16 in
    let total = ref 0 in
    List.iter
      (fun ev ->
        let str key =
          match Json.member key ev with Ok (Json.String s) -> s | _ -> ""
        in
        let int key =
          match Json.member key ev with Ok (Json.Int i) -> i | _ -> 0
        in
        let ph = str "ph" in
        if ph <> "M" && ph <> "" then begin
          let tid = int "tid" in
          incr total;
          (match Hashtbl.find_opt counts tid with
          | Some r -> incr r
          | None -> Hashtbl.add counts tid (ref 1));
          let stack =
            match Hashtbl.find_opt stacks tid with
            | Some s -> s
            | None ->
              let s = ref [] in
              Hashtbl.add stacks tid s;
              s
          in
          let ts =
            match Json.member "ts" ev with Ok v -> num v | Error _ -> 0.
          in
          match ph with
          | "B" -> stack := (str "name", ts) :: !stack
          | "E" -> (
            match !stack with
            | [] -> ()
            | (name, t0) :: rest ->
              stack := rest;
              let d = ts -. t0 in
              (match Hashtbl.find_opt totals name with
              | Some r -> r := !r +. d
              | None -> Hashtbl.add totals name (ref d)))
          | _ -> ()
        end)
      evs;
    let dropped =
      match Json.member "otherData" json with
      | Ok od -> (
        match Json.member "dropped" od with Ok (Json.Int i) -> i | _ -> 0)
      | Error _ -> 0
    in
    let tracks =
      Hashtbl.fold (fun tid r acc -> (tid, !r) :: acc) counts []
      |> List.sort compare
    in
    let span_totals =
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) totals []
      |> List.sort compare
    in
    Ok { tracks; span_totals; total_events = !total; dropped }
  | Ok _ -> Error "traceEvents is not a list"

let pp_digest ppf d =
  Format.fprintf ppf "@[<v>events: %d  dropped: %d" d.total_events d.dropped;
  List.iter
    (fun (tid, n) -> Format.fprintf ppf "@,track %d: %d events" tid n)
    d.tracks;
  if d.span_totals <> [] then begin
    Format.fprintf ppf "@,span totals:";
    List.iter
      (fun (name, t) -> Format.fprintf ppf "@,  %-24s %.6g" name t)
      d.span_totals
  end;
  Format.fprintf ppf "@]"
