open! Import

(** SPF route computation (Dijkstra 1959), as installed in the ARPANET in
    May 1979.

    Link costs are supplied as a function of {!Link.id} in routing units
    (positive integers).  The SPF algorithm is shared by every metric —
    D-SPF, HN-SPF and min-hop differ only in the costs they feed in (§2.2).

    {b Tie-breaking.}  §5.2's response-map analysis requires computing
    routes with "ties always broken in favor of using the given link" and,
    for the other end of the traffic band, against it.  [tie_break]
    implements this as an infinitesimal cost adjustment on the probe link;
    the default [`Neutral] breaks remaining ties toward fewer hops and then
    lower link ids, making route computation fully deterministic.

    {b Hot path.}  Internally every computation runs over the graph's flat
    (CSR) adjacency and a per-link table of memoized composite edge weights
    ({!compute_weights} / {!compute_flat}), so the inner loop touches only
    int arrays.  {!compute} is the convenience wrapper; callers computing
    many trees against the same costs — {!all_pairs}, {!Spf_engine} — build
    the weight table once and share it. *)

type tie_break =
  [ `Neutral  (** fewer hops, then lower link ids *)
  | `Favor of Link.id  (** equal-cost ties prefer paths using the link *)
  | `Avoid of Link.id  (** equal-cost ties prefer paths avoiding the link *)
  ]

val max_link_cost : int
(** Largest admissible per-link cost (254 routing units — the delay metric's
    8-bit field, §3.2's 127:1 range anchor). *)

val compute :
  ?tie_break:tie_break ->
  ?enabled:(Link.id -> bool) ->
  Graph.t ->
  cost:(Link.id -> int) ->
  Node.t ->
  Spf_tree.t
(** [compute g ~cost root] builds the shortest-path tree from [root].
    Links for which [enabled] is false (default: none) are treated as down
    and never entered — how SPF "dynamically rout[es] around down lines"
    (§7).
    @raise Invalid_argument if any enabled link's cost is outside
    [\[1, max_link_cost\]]. *)

val compute_weights :
  ?tie_break:tie_break ->
  ?enabled:(Link.id -> bool) ->
  Graph.t ->
  cost:(Link.id -> int) ->
  int array
(** The composite edge-weight table, indexed by link id: each enabled
    link's cost folded with the tie-break adjustment and the per-hop +1;
    disabled links carry the sentinel [-1].  Equal tables (under [(=)])
    guarantee identical trees from {!compute_flat}.
    @raise Invalid_argument if any enabled link's cost is outside
    [\[1, max_link_cost\]]. *)

val compute_weights_into :
  ?tie_break:tie_break ->
  ?enabled:(Link.id -> bool) ->
  Graph.t ->
  cost:(Link.id -> int) ->
  int array ->
  unit
(** {!compute_weights} into a caller-owned array of length
    [Graph.link_count] — allocation-free, for tables refreshed every
    routing period. *)

val link_weight : cost:(Link.id -> int) -> Link.id -> int
(** One enabled link's entry of a [`Neutral] {!compute_weights} table:
    how a caller keeping its own table patches the links an update
    touched before handing the changes to {!Spf_repair.repair}.
    @raise Invalid_argument if the link's cost is outside
    [\[1, max_link_cost\]]. *)

val compute_flat : Graph.t -> weights:int array -> Node.t -> Spf_tree.t
(** [compute_flat g ~weights root]: the SPF inner loop proper, over a table
    from {!compute_weights}.  [compute ... root] is exactly
    [compute_flat g ~weights:(compute_weights ...) root]. *)

type scratch
(** Reusable work arrays (settled flags, composite distances, the monotone
    {!Radix_queue}) for the inner loop.  Owned by one domain at a time;
    resizes itself to whatever graph it is used on. *)

val scratch : unit -> scratch

val compute_flat_s :
  scratch -> Graph.t -> weights:int array -> Node.t -> Spf_tree.t
(** {!compute_flat} with caller-owned scratch: bit-identical trees, no
    per-call work-array allocation.  [compute_flat g] is
    [compute_flat_s (scratch ()) g]. *)

val source_chunk : sources:int -> domains:int -> int
(** Chunk size for fanning [sources] single-source computations over
    [domains] domains — several sources per visit to the pool's shared
    counter, small enough to balance uneven work. *)

val composite : dist:int -> hops:int -> int
(** Re-encode a tree's per-node [dist] (routing units) and [hops] into the
    composite distance the inner loop compared, assuming [`Neutral]
    tie-breaking (the encoding is lossy under [`Favor]/[`Avoid]).
    [max_int] maps to [max_int].  Used by {!Spf_engine} to reason about
    whether a weight change can affect a tree. *)

val decompose : int -> int * int
(** Inverse of {!composite} under [`Neutral] tie-breaking: composite
    distance back to [(units, hops)].  [max_int] maps to
    [(max_int, max_int)].  Used by the repair path to re-decode patched
    distances exactly as {!compute_flat} decodes fresh ones. *)

val composite_units : int -> int
(** First component of {!decompose}, returned unboxed — the repair
    resettle loop re-decodes per popped node and must not allocate the
    pair. *)

val composite_hops : int -> int
(** Second component of {!decompose}, returned unboxed. *)

val all_pairs :
  ?tie_break:tie_break ->
  ?enabled:(Link.id -> bool) ->
  ?pool:Domain_pool.t ->
  Graph.t ->
  cost:(Link.id -> int) ->
  Spf_tree.t array
(** One tree per node, indexed by node id — what the network as a whole
    computes after a flood reaches everyone.  The weight table is built
    once and shared across sources; with [pool] the per-source computations
    fan out over the pool's domains (each source writes only its own slot,
    so the result is bit-identical to the sequential run). *)

val min_hop_tree : ?enabled:(Link.id -> bool) -> Graph.t -> Node.t -> Spf_tree.t
(** SPF with every link costing one hop — the static baseline of §5.3. *)
