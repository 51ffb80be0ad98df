open! Import

(** Structured events of the packet simulator.

    When a telemetry bundle is attached, {!Network} counts every event in
    the bundle's registry and streams it through the bundle's sink as one
    JSONL line ({!to_json}) — the canonical durable record of a run
    ([--trace-out]), which [replay --events] decodes with {!of_json}.
    Without a bundle the hook costs one branch. *)

type event =
  | Packet_delivered of { src : Node.t; dst : Node.t; delay_s : float;
                          hops : int }
  | Packet_dropped of { at : Node.t; src : Node.t; dst : Node.t;
                        reason : drop_reason }
  | Update_flooded of { origin : Node.t; links : int }
      (** a PSN originated a routing update covering [links] of its lines *)
  | Update_accepted of { at : Node.t; origin : Node.t; latency_s : float }
  | Tables_recomputed of { at : Node.t }
  | Link_state of { link : Link.id; up : bool }

and drop_reason = Buffer_full | Line_down | Line_error | No_route | Ttl

val reason_name : drop_reason -> string

val reason_of_name : string -> drop_reason option

val all_reasons : drop_reason list

val pp_event_ids : Format.formatter -> event -> unit
(** One line per event, naming nodes by id ([n3]) — a JSONL stream
    carries no topology to look names up in. *)

val to_json : time:float -> event -> Routing_obs.Json.t
(** One self-describing JSON object (field ["ev"] carries the event type;
    nodes and links appear as their stable integer ids). *)

val of_json : Routing_obs.Json.t -> (float * event, string) result
(** Exact inverse of {!to_json}. *)
