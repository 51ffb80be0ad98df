open! Import

(** Per-PSN flooding state for the updating protocol (Rosen 1980).

    Each PSN remembers, per origin, the newest sequence number it has
    accepted.  {!receive} classifies an incoming update and — for a fresh
    one — says which links to forward it on (all outgoing links except the
    one it arrived over).  {!originate} stamps a PSN's own update.

    The transport below (retransmission until acknowledged on each line) is
    the simulator's job; this module is the protocol's decision logic, and
    with it a simulator can account exactly for how many update
    transmissions a single cost change costs the network. *)

type t

val create : Graph.t -> owner:Node.t -> t

val owner : t -> Node.t

val originate : t -> costs:(Link.id * int) list -> Update.t
(** Build this PSN's next update (advancing its own sequence number) and
    record it as seen. *)

val accept : t -> Update.t -> bool
(** The allocation-free core of {!receive} for an update arriving over a
    line: a first sighting is recorded and answers [true], a duplicate
    [false].  A fresh update goes out on every outgoing link except the
    reverse of the one it arrived on; the caller walks those itself. *)

type verdict =
  | Fresh of Link.id list
      (** first sighting: accept the costs, forward on these links *)
  | Duplicate  (** already seen (same or older sequence): discard *)

val receive : t -> arrived_on:Link.id option -> Update.t -> verdict
(** [arrived_on = None] models an update injected locally (used when a
    simulator applies an origination to its own node); a local injection is
    always [Fresh] and forwards on every outgoing link. *)

val last_seq : t -> Node.t -> Sequence.t option
(** Newest sequence accepted from an origin, if any. *)
