open! Import

(** SPF route computation (Dijkstra 1959), as installed in the ARPANET in
    May 1979.

    Link costs are supplied as a function of {!Link.id} in routing units
    (positive integers).  The SPF algorithm is shared by every metric —
    D-SPF, HN-SPF and min-hop differ only in the costs they feed in (§2.2).

    {b Tie-breaking.}  Among equal-cost paths the one with fewer hops
    wins, and among those the lower arriving link id, so route
    computation is fully deterministic.  §5.2's favor/against tie-break
    for the response map is applied analytically on hop tables
    ([Response_map]), not by a route computation.

    {b Hot path.}  Internally every computation runs over the graph's flat
    (CSR) adjacency and a per-link table of memoized composite edge weights
    ({!compute_weights} / {!compute_flat}; {!Spf_tree} owns the encoding),
    so the inner loop touches only int arrays, and its composite distances
    and int parents are the tree's own.  {!compute} is the convenience
    wrapper; callers computing many trees against the same costs —
    {!Spf_engine} — build the weight table once and share it. *)

val max_link_cost : int
(** Largest admissible per-link cost (254 routing units — the delay metric's
    8-bit field, §3.2's 127:1 range anchor). *)

val compute :
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
  ?enabled:(Link.id -> bool) ->
  Graph.t ->
  cost:(Link.id -> int) ->
  int array
(** The composite edge-weight table, indexed by link id: each enabled
    link's {!link_weight}; disabled links carry the sentinel [-1].
    Equal tables (under [(=)]) guarantee identical trees from
    {!compute_flat}.
    @raise Invalid_argument if any enabled link's cost is outside
    [\[1, max_link_cost\]]. *)

val compute_weights_into :
  ?enabled:(Link.id -> bool) ->
  Graph.t ->
  cost:(Link.id -> int) ->
  int array ->
  unit
(** {!compute_weights} into a caller-owned array of length
    [Graph.link_count] — allocation-free, for tables refreshed every
    routing period. *)

val link_weight : cost:(Link.id -> int) -> Link.id -> int
(** One enabled link's entry of a {!compute_weights} table, its cost
    folded with the per-hop +1 ({!Spf_tree.edge_weight}): how a caller
    keeping its own table patches the links an update touched before
    handing the changes to {!Spf_repair.repair}.
    @raise Invalid_argument if the link's cost is outside
    [\[1, max_link_cost\]]. *)

val compute_flat : Graph.t -> weights:int array -> Node.t -> Spf_tree.t
(** [compute_flat g ~weights root]: the SPF inner loop proper, over a table
    from {!compute_weights}.  [compute ... root] is exactly
    [compute_flat g ~weights:(compute_weights ...) root]. *)

type scratch
(** Reusable work arrays (the settled flags and the {!Int_heap}) for the
    inner loop; distances and parents live in the tree itself.  Owned by
    one domain at a time; resizes itself to whatever graph it is used
    on. *)

val scratch : unit -> scratch

val compute_into : scratch -> Graph.t -> weights:int array -> Spf_tree.t -> unit
(** [compute_into s g ~weights tree] recomputes [tree] in place, from its
    own root, over a table from {!compute_weights}: afterwards the tree is
    bit-identical to [compute_flat g ~weights (Spf_tree.root tree)].
    Every entry is overwritten, so a stale tree — exact under an older
    table, or with nodes the new table no longer reaches — comes out
    exact.  The inner loop runs in the tree's own arrays
    ({!Spf_tree.unsafe_composite}, {!Spf_tree.unsafe_parent}) and
    allocates nothing once the scratch is sized.  Like a repair, it
    changes what every holder of the tree sees. *)

val min_hop_tree : ?enabled:(Link.id -> bool) -> Graph.t -> Node.t -> Spf_tree.t
(** SPF with every link costing one hop — the static baseline of §5.3. *)
