open! Import

(** Shortest-path trees produced by {!Dijkstra}.

    A tree is rooted at the computing PSN.  Because shortest paths are
    hereditary (every subpath of a shortest path is a shortest path — §4.1),
    the tree simultaneously encodes the full path, the next hop and the
    distance for every destination. *)

type t

val make :
  graph:Graph.t ->
  root:Node.t ->
  parent:Link.id option array ->
  dist:int array ->
  hops:int array ->
  t
(** Arrays are indexed by node id; [parent.(n)] is the link over which the
    path enters [n] ([None] for the root and unreachable nodes); [dist] is
    in routing units with [max_int] for unreachable. *)

val graph : t -> Graph.t

val root : t -> Node.t

val reached : t -> Node.t -> bool

val dist : t -> Node.t -> int
(** Total path cost in routing units.  [max_int] when unreachable. *)

val hops : t -> Node.t -> int
(** Path length in links.  [max_int] when unreachable. *)

val parent_link : t -> Node.t -> Link.t option

(** {2 Raw accessors} — int-indexed views for hot loops (load assignment
    walks every reached node of every source's tree each period); no
    option or [Node.t] boxing. *)

val reached_i : t -> int -> bool
(** [reached_i t i = reached t (Node.of_int i)]. *)

val hops_i : t -> int -> int
(** [hops_i t i = hops t (Node.of_int i)]. *)

val parent_id : t -> int -> int
(** The link id over which the path enters node [i], or [-1] for the root
    and unreachable nodes. *)

val next_hops_into : t -> int array -> unit
(** [next_hops_into t col] writes every node's next-hop link id into
    [col] (length at least the node count): [Link.id_to_int] of
    {!next_hop}'s link, or [-1] for the root and unreachable nodes.  One
    pass over the tree, in place and allocation-free — how the packet
    simulator refreshes a PSN's forwarding column. *)

val unsafe_parent : t -> Link.id option array
(** The tree's own parent array, exposed so {!Spf_repair} can patch it
    and [Dijkstra.compute_into] can rewrite it in place.  Mutating it
    silently changes what every holder of the tree sees; only those two
    paths, which restore the [Dijkstra.compute] invariant before
    returning, may write. *)

val unsafe_dist : t -> int array
(** The distance array — same caveats as {!unsafe_parent}. *)

val unsafe_hops : t -> int array
(** The hop-count array — same caveats as {!unsafe_parent}. *)

val path : t -> Node.t -> Link.t list
(** Links from the root to the destination, in forwarding order; [[]] for
    the root itself.  @raise Invalid_argument if unreachable. *)

val next_hop : t -> Node.t -> Link.t option
(** First link on the path — what the forwarding table stores.  [None] for
    the root and unreachable destinations. *)

val uses_link : t -> Node.t -> Link.id -> bool
(** Does the path to the destination traverse the link? *)

val destinations_via : t -> Link.id -> Node.t list
(** All destinations whose tree path traverses the link. *)

val fold_reached : t -> init:'a -> f:('a -> Node.t -> 'a) -> 'a
(** Fold over every reached node except the root. *)

val equal : t -> t -> bool
(** Structural equality: same root, same distances, hop counts {e and}
    parent links for every node.  The determinism tests use this to assert
    parallel and sequential computations agree bit-for-bit. *)

val equal_dists : t -> t -> bool
(** True when the two trees assign every node the same distance (parents may
    differ between equally short trees). *)
