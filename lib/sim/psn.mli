open! Import

(** One packet-switching node's routing state in the packet simulator:
    its forwarding column and its flooding engine.

    The forwarding column holds, per destination node, the id of the
    outgoing link to forward on, or -1 for no route (and for the node
    itself).  It is refreshed in place from the route tree the simulator
    already keeps for the node, so installing new routes allocates
    nothing; forwarding is one array read. *)

type t

val create : Graph.t -> Node.t -> t
(** Every destination starts unrouted until the first {!install_tree}. *)

val node : t -> Node.t

val install_tree : t -> Spf_tree.t -> unit
(** Refresh the column from the node's shortest-path tree
    ({!Routing_spf.Spf_tree.next_hops_into}). *)

val table : t -> int array
(** The column itself, indexed by destination node id: the link id to
    forward on, or -1.  {!install_tree} rewrites it in place, so a
    caller may keep it; do not mutate it. *)

val flooder : t -> Flooder.t
