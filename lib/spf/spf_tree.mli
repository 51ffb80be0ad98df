open! Import

(** Shortest-path trees produced by {!Dijkstra}.

    A tree is rooted at the computing PSN.  Because shortest paths are
    hereditary (every subpath of a shortest path is a shortest path — §4.1),
    the tree simultaneously encodes the full path, the next hop and the
    distance for every destination.

    {b One format.}  A tree holds exactly what Dijkstra computes: per node,
    the id of the link over which the path arrives ([-1] for the root and
    unreached nodes) and the {e composite} distance the inner loop compared
    ([max_int] when unreached).  {!Dijkstra} writes these arrays,
    {!Spf_repair} patches them in place, and the readers below decode
    routing units and hop counts when asked.  This module owns the
    encoding: the hop scale, {!edge_weight} and the decode. *)

type t

val unreached : Graph.t -> Node.t -> t
(** [unreached g root]: a tree from [root] over [g] that reaches no node
    yet, not even [root] — the blank that [Dijkstra.compute_into] fills. *)

(** {2 Composite distances}

    One positive integer encodes the lexicographic order of (path cost,
    hop count), which keeps plain Dijkstra applicable.  A link
    contributes

    {[ w(l) = cost(l) * 2^20 + 1 ]}

    so a path's composite, the sum over its links, holds the hop count in
    the low 20 bits and the unit cost above them, and among equal-cost
    paths the one with fewer hops is shorter.  A path of a million
    254-unit links fits in 49 bits. *)

val edge_weight : cost:int -> int
(** [edge_weight ~cost] is [w(l)] above for a link of [cost] routing
    units.  Callers bound [cost] (Dijkstra admits at most 254) so that
    sums over paths of fewer than 2^20 hops stay exact. *)

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
    option or [Node.t] boxing, and inlined into release-build callers. *)

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

val unsafe_parent : t -> int array
(** The tree's own parent array (arriving link ids, [-1] for none),
    exposed so {!Spf_repair} can patch it and [Dijkstra.compute_into] can
    rewrite it in place.  Mutating it silently changes what every holder
    of the tree sees; only those two paths, which restore the
    [Dijkstra.compute] invariant before returning, may write. *)

val unsafe_composite : t -> int array
(** The composite-distance array ([max_int] when unreached) — same caveats
    as {!unsafe_parent}.  These are not routing units: {!dist} decodes. *)

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

val equal : t -> t -> bool
(** Structural equality: same root, same composite distances and parent
    links for every node — so the same distances and hop counts too.  The
    determinism tests use this to assert parallel and sequential
    computations agree bit-for-bit. *)
