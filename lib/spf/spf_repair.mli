open! Import

(** In-place dynamic SPF repair (Ramalingam–Reps style).

    Given a tree that was exact under the previous weight table and the
    set of per-link weight changes ({!changes}), {!repair} patches the tree's
    composite distances and int parent links in place, never decoding, so
    that it is {b bit-identical} to [Dijkstra.compute_flat] from scratch
    under the new table — in time proportional to the part of the tree
    that actually changes, not the graph.

    The repair leans on the same fact as the reuse proof {!affects}: the
    from-scratch tree is a pure function of the weight table — every
    node's distance is the true shortest composite distance, and its
    parent is the lowest-id enabled in-link achieving it.  The repair
    re-establishes exactly that local characterization on the region it
    disturbs:

    + {b Invalidate}: a weight increase (or disable) can only lengthen
      routes through the link, so only the subtree hanging below it is
      suspect; that subtree is flooded and marked invalid.
    + {b Seed}: every invalid node is offered its best candidate over
      in-links from intact nodes (whose distances are still exact or
      over-approximations that later relaxations fix); every decreased
      link whose source is intact offers its destination a shortcut, and
      an exact tie with a lower link id patches the parent pointer alone
      (distances downstream are untouched by a parent swap).
    + {b Re-settle}: a Dijkstra loop over the {!Int_heap}, popping in
      [(key, link id)] order, settles the frontier outward, writing at
      each settle the composite and parent a fresh computation would.
      Touched nodes that never re-settle are exactly the ones the changes
      disconnected.

    A tree untouched by the changes costs nothing here — but callers
    ({!Spf_engine}) should use the cheap per-tree proof {!affects} first
    and hand over only trees that may actually be affected. *)

type scratch
(** Epoch-stamped work arrays plus the heap: repairs never pay an O(n)
    clear, only O(touched).  Owned by one domain at a time;
    resizes itself to whatever graph it is used on. *)

val scratch : ?graph:Graph.t -> unit -> scratch
(** [scratch ~graph ()] comes sized for [graph], so repairs on that graph
    never resize it.  Without [graph] the first repair sizes it. *)

(** {2 Change sets}

    The weight changes one repair applies: per changed link, its old and
    new composite weight ([-1] for disabled), held as three int columns
    plus a count.  A caller keeps one set and refills it for every
    repair, so filling it allocates only when a column doubles. *)

type changes

val changes : unit -> changes
(** An empty change set. *)

val clear_changes : changes -> unit
(** Empty the set, keeping its columns. *)

val reserve_changes : changes -> int -> unit
(** Make room for that many changes.  One change per link is the most a
    weight diff can hold, so a set reserved for the graph's link count
    never grows. *)

val add_change : changes -> Link.id -> old_w:int -> new_w:int -> unit
(** Append one link's change. *)

val affects : Graph.t -> Spf_tree.t -> changes -> bool
(** [affects g tree changes] is [false] only when the changes provably
    leave [tree] — exact under the old table — bit-identical to its
    recomputation under the new one: every increased link is not the
    tree's parent of its destination, and every decreased link [u -> v]
    has [u] unreached, or [v] reached with [D(u) + w' > D(v)] in
    composite distance.  A cheap per-tree test
    (O(changes), allocation-free) that callers such as {!Spf_engine} run
    before handing a tree to {!repair}. *)

val repair :
  scratch ->
  Graph.t ->
  tree:Spf_tree.t ->
  weights:int array ->
  changes:changes ->
  int
(** [repair s g ~tree ~weights ~changes] patches [tree] in place and
    returns the number of nodes re-settled (0 when the changes turn out
    not to touch this tree).  [weights] is the {e new} composite table
    from [Dijkstra.compute_weights]; [changes] holds [(link, old_weight,
    new_weight)] for every table entry that differs, each link at most
    once.  [tree] must have been exact under the old table. *)

val wrote_tree : scratch -> bool
(** Whether the last {!repair} through this scratch wrote any entry of
    its tree: a re-settled node, a parent patched on an exact tie, or a
    node reset to unreached.  [false] means the tree is exactly as it was
    before that repair, so anything derived from it (a forwarding column)
    is still current.  A repair can write entries yet re-settle none. *)
