module Time_series = Routing_stats.Time_series

type labels = (string * string) list

type counter = { mutable count : int }

type gauge = { mutable value : float }

type series = Time_series.t

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Series of series

type t = {
  instruments : (string * labels, instrument) Hashtbl.t;
  meta : (string, string) Hashtbl.t;
}

let create () = { instruments = Hashtbl.create 64; meta = Hashtbl.create 8 }

let set_meta t key value = Hashtbl.replace t.meta key value

let normalize labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Series _ -> "series"

let register t ~labels name fresh =
  let key = (name, normalize labels) in
  match Hashtbl.find_opt t.instruments key with
  | Some existing -> existing
  | None ->
    let made = fresh () in
    Hashtbl.add t.instruments key made;
    made

let mismatch name existing =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s" name
       (kind_name existing))

let counter t ?(labels = []) name =
  match register t ~labels name (fun () -> Counter { count = 0 }) with
  | Counter c -> c
  | other -> mismatch name other

let inc ?(by = 1) c = c.count <- c.count + by

let counter_value c = c.count

let gauge t ?(labels = []) name =
  match register t ~labels name (fun () -> Gauge { value = 0. }) with
  | Gauge g -> g
  | other -> mismatch name other

let set g value = g.value <- value

let gauge_value g = g.value

let series t ?(labels = []) name =
  match register t ~labels name (fun () -> Series (Time_series.create name))
  with
  | Series s -> s
  | other -> mismatch name other

let sample s ~time v = Time_series.record s ~time v

let adopt_series t ?(labels = []) name existing =
  let key = (name, normalize labels) in
  match Hashtbl.find_opt t.instruments key with
  | None -> Hashtbl.add t.instruments key (Series existing)
  | Some (Series s) when s == existing -> ()
  | Some other -> mismatch name other

(* ---------------------------------------------------------------- *)

(* Instruments in deterministic (name, labels) order: the order [to_json]
   renders and [merge] folds in, so neither depends on hash-table
   internals. *)
let sorted_instruments t =
  Hashtbl.fold (fun key i acc -> (key, i) :: acc) t.instruments []
  |> List.sort (fun ((n, l), _) ((n', l'), _) ->
         match String.compare n n' with 0 -> compare l l' | c -> c)

let merge ~into src =
  Hashtbl.iter (fun k v -> Hashtbl.replace into.meta k v) src.meta;
  List.iter
    (fun (((name, _) as key), instrument) ->
      match (Hashtbl.find_opt into.instruments key, instrument) with
      | None, Counter c ->
        Hashtbl.add into.instruments key (Counter { count = c.count })
      | Some (Counter c'), Counter c -> c'.count <- c'.count + c.count
      | None, Gauge g ->
        Hashtbl.add into.instruments key (Gauge { value = g.value })
      | Some (Gauge g'), Gauge g -> g'.value <- g.value
      | None, Series s ->
        let s' = Time_series.create (Time_series.name s) in
        Time_series.iter s (fun ~time ~value ->
            Time_series.record s' ~time value);
        Hashtbl.add into.instruments key (Series s')
      | Some (Series s'), Series s ->
        Time_series.iter s (fun ~time ~value ->
            Time_series.record s' ~time value)
      | Some other, _ -> mismatch name other)
    (sorted_instruments src)

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let instrument_json (name, labels) instrument =
  let base = [ ("name", Json.String name) ] in
  let base =
    if labels = [] then base else base @ [ ("labels", labels_json labels) ]
  in
  let body =
    match instrument with
    | Counter c -> [ ("type", Json.String "counter"); ("value", Json.Int c.count) ]
    | Gauge g -> [ ("type", Json.String "gauge"); ("value", Json.Float g.value) ]
    | Series s ->
      let points = ref [] in
      Time_series.iter s (fun ~time ~value ->
          points := Json.List [ Json.Float time; Json.Float value ] :: !points);
      [ ("type", Json.String "series");
        ("points", Json.List (List.rev !points)) ]
  in
  Json.Obj (base @ body)

let to_json ?(extra = []) t =
  let meta =
    Hashtbl.fold (fun k v acc -> (k, Json.String v) :: acc) t.meta []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Obj
    (("meta", Json.Obj meta)
     :: ("metrics",
         Json.List
           (List.map
              (fun (key, i) -> instrument_json key i)
              (sorted_instruments t)))
     :: extra)

let write_file ?extra t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty (to_json ?extra t));
      output_char oc '\n')
