open! Import

(** Per-PSN forwarding tables.

    The ARPANET forwards on destination alone: "the packet header … contain[s]
    only the identity of the destination node" (§4.1), so a table is just a
    next-hop link per destination.  Consistency across PSNs (everyone
    computing on the same flooded costs) is what makes this loop-free;
    {!trace_route} makes that property checkable. *)

type t

val of_tree : Spf_tree.t -> t
(** Extract next hops from a shortest-path tree.  The table is a copy:
    repairing the tree in place afterwards ({!Spf_repair}) leaves it
    alone. *)

val owner : t -> Node.t

val next_hop : t -> Node.t -> Link.t option
(** The outgoing link for a destination; [None] for self or unreachable. *)

val reachable_count : t -> int

type trace =
  | Arrived of Link.t list  (** forwarding path, in order *)
  | Loop of Node.t list  (** nodes visited until a repeat was detected *)
  | Black_hole of Node.t  (** a hop had no route to the destination *)

val trace_route : t array -> src:Node.t -> dst:Node.t -> trace
(** Follow next hops through the per-node tables (indexed by node id) from
    [src] to [dst], detecting forwarding loops and black holes.  With
    consistent SPF tables the result is always [Arrived]. *)
