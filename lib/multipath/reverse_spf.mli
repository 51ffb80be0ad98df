open! Import

(** Destination-rooted shortest-path computation.

    Multipath forwarding is naturally destination-based: every node needs
    its distance {e to} the destination and the set of outgoing links that
    lie on {e some} shortest path there (the ECMP relaxation of SPF's
    single parent).  This runs Dijkstra over the reversed graph. *)

type t

val compute :
  ?enabled:(Link.id -> bool) ->
  Graph.t ->
  cost:(Link.id -> int) ->
  Node.t ->
  t
(** [compute g ~cost dst]: distances of every node {e to} [dst].  Costs
    must be non-negative. *)

val destination : t -> Node.t

val dist_to : t -> Node.t -> int
(** Routing units to the destination; [max_int] when it cannot reach. *)

val reaches : t -> Node.t -> bool

val next_hops : t -> Node.t -> Link.t list
(** Every outgoing link [l] of the node with
    [cost l + dist_to (head l) = dist_to node] — the equal-cost next-hop
    set, in ascending link-id order.  Empty for the destination itself and
    for nodes that cannot reach it. *)

val nodes_by_descending_distance : t -> Node.t list
(** Nodes that reach the destination, farthest first (the destination
    last) — the processing order for load propagation over the ECMP DAG,
    which is acyclic because distances strictly decrease along next
    hops. *)
