open! Import

type event =
  | Packet_delivered of { src : Node.t; dst : Node.t; delay_s : float;
                          hops : int }
  | Packet_dropped of { at : Node.t; src : Node.t; dst : Node.t;
                        reason : drop_reason }
  | Update_flooded of { origin : Node.t; links : int }
  | Update_accepted of { at : Node.t; origin : Node.t; latency_s : float }
  | Tables_recomputed of { at : Node.t }
  | Link_state of { link : Link.id; up : bool }

and drop_reason = Buffer_full | Line_down | Line_error | No_route | Ttl

let reason_name = function
  | Buffer_full -> "buffer-full"
  | Line_down -> "line-down"
  | Line_error -> "line-error"
  | No_route -> "no-route"
  | Ttl -> "ttl"

let reason_of_name = function
  | "buffer-full" -> Some Buffer_full
  | "line-down" -> Some Line_down
  | "line-error" -> Some Line_error
  | "no-route" -> Some No_route
  | "ttl" -> Some Ttl
  | _ -> None

let all_reasons = [ Buffer_full; Line_down; Line_error; No_route; Ttl ]

let pp_event_ids ppf = function
  | Packet_delivered { src; dst; delay_s; hops } ->
    Format.fprintf ppf "delivered n%d->n%d in %.1f ms over %d hops"
      (Node.to_int src) (Node.to_int dst) (1000. *. delay_s) hops
  | Packet_dropped { at; src; dst; reason } ->
    Format.fprintf ppf "dropped n%d->n%d at n%d (%s)" (Node.to_int src)
      (Node.to_int dst) (Node.to_int at) (reason_name reason)
  | Update_flooded { origin; links } ->
    Format.fprintf ppf "update from n%d covering %d links" (Node.to_int origin)
      links
  | Update_accepted { at; origin; latency_s } ->
    Format.fprintf ppf "n%d accepted update from n%d after %.1f ms"
      (Node.to_int at) (Node.to_int origin) (1000. *. latency_s)
  | Tables_recomputed { at } ->
    Format.fprintf ppf "n%d recomputed its routing table" (Node.to_int at)
  | Link_state { link; up } ->
    Format.fprintf ppf "link %a %s" Link.pp_id link (if up then "up" else "down")

(* ---------------------------------------------------------------- *)
(* JSONL encoding: node and link ids (stable integers), one object   *)
(* per event, self-describing via "ev".  [of_json] inverts [to_json] *)
(* exactly — see test_obs.ml's qcheck round-trip.                    *)

module J = Obs_json

let event_name = function
  | Packet_delivered _ -> "deliver"
  | Packet_dropped _ -> "drop"
  | Update_flooded _ -> "flood"
  | Update_accepted _ -> "accept"
  | Tables_recomputed _ -> "recompute"
  | Link_state _ -> "link"

let to_json ~time event =
  let node n = J.Int (Node.to_int n) in
  let fields =
    match event with
    | Packet_delivered { src; dst; delay_s; hops } ->
      [ ("src", node src); ("dst", node dst); ("delay_s", J.Float delay_s);
        ("hops", J.Int hops) ]
    | Packet_dropped { at; src; dst; reason } ->
      [ ("at", node at); ("src", node src); ("dst", node dst);
        ("reason", J.String (reason_name reason)) ]
    | Update_flooded { origin; links } ->
      [ ("origin", node origin); ("links", J.Int links) ]
    | Update_accepted { at; origin; latency_s } ->
      [ ("at", node at); ("origin", node origin);
        ("latency_s", J.Float latency_s) ]
    | Tables_recomputed { at } -> [ ("at", node at) ]
    | Link_state { link; up } ->
      [ ("link", J.Int (Link.id_to_int link)); ("up", J.Bool up) ]
  in
  J.Obj
    (("t", J.Float time) :: ("ev", J.String (event_name event)) :: fields)

let of_json json =
  let ( let* ) = Result.bind in
  let node key = Result.map Node.of_int (Result.bind (J.member key json) J.to_int) in
  let int key = Result.bind (J.member key json) J.to_int in
  let float key = Result.bind (J.member key json) J.to_float in
  let* time = float "t" in
  let* ev = Result.bind (J.member "ev" json) J.to_str in
  let* event =
    match ev with
    | "deliver" ->
      let* src = node "src" in
      let* dst = node "dst" in
      let* delay_s = float "delay_s" in
      let* hops = int "hops" in
      Ok (Packet_delivered { src; dst; delay_s; hops })
    | "drop" ->
      let* at = node "at" in
      let* src = node "src" in
      let* dst = node "dst" in
      let* name = Result.bind (J.member "reason" json) J.to_str in
      let* reason =
        Option.to_result ~none:(Printf.sprintf "unknown drop reason %S" name)
          (reason_of_name name)
      in
      Ok (Packet_dropped { at; src; dst; reason })
    | "flood" ->
      let* origin = node "origin" in
      let* links = int "links" in
      Ok (Update_flooded { origin; links })
    | "accept" ->
      let* at = node "at" in
      let* origin = node "origin" in
      let* latency_s = float "latency_s" in
      Ok (Update_accepted { at; origin; latency_s })
    | "recompute" ->
      let* at = node "at" in
      Ok (Tables_recomputed { at })
    | "link" ->
      let* link = Result.map Link.id_of_int (int "link") in
      let* up = Result.bind (J.member "up" json) J.to_bool in
      Ok (Link_state { link; up })
    | other -> Error (Printf.sprintf "unknown event type %S" other)
  in
  Ok (time, event)
