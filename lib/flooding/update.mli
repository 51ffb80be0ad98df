open! Import

(** Routing update messages.

    "Routing updates contain only link cost information; no other routing
    information is disseminated through the network" (§2.2).  An update
    announces the originating PSN's current costs for its outgoing links,
    stamped with a per-origin sequence number. *)

type t = {
  origin : Node.t;  (** the PSN reporting its local links *)
  seq : Sequence.t;
  costs : (Link.id * int) list;  (** the origin's outgoing links *)
}

val wire_bits : links:int -> int
(** Wire size of an update reporting [links] links, used for overhead
    accounting: 128 bits of header plus 48 bits per reported link (16-bit
    link id, 8-bit cost, 24 bits of protocol framing) — C/30-era message
    proportions.  An int, so it crosses module boundaries unboxed; every
    value is exact as a float. *)

val run_end :
  link_src:int array -> changed_ids:int array -> count:int -> int -> int
(** [run_end ~link_src ~changed_ids ~count k] is the end (exclusive) of
    the run of [changed_ids.(0 .. count - 1)] that starts at index [k]
    and shares its origin, [link_src] mapping a link id to its source
    node id.  Over the origin-grouped links a period's metric pass
    flooded ({!Routing_metric.Metric.period_update_all}), each run
    [k .. stop - 1] is one update: its origin is
    [link_src.(changed_ids.(k))] and it reports [stop - k] links.
    Int-only and allocation-free. *)

val runs : link_src:int array -> changed_ids:int array -> count:int -> int
(** The number of runs {!run_end} splits [changed_ids.(0 .. count - 1)]
    into: the updates one metric pass floods. *)

val size_bits : t -> float
(** [wire_bits] of the update's cost list, as a float. *)

val pp : Format.formatter -> t -> unit
