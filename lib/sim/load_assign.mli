open! Import

(** Destination-aggregated flow-to-link load assignment — the flow
    simulator's per-period hot path.

    All of a source's flows ride the same SPF tree, so a link's offered
    load equals the total demand of the subtree hanging below it.  One
    leaves-inward sweep per source (counting-sorted by hop count) assigns
    every link's load in O(V + E + flows) per source, replacing the
    historical O(flows × path length) per-flow tree climbs; a root-outward
    sweep labels each node with its first-hop link, cumulative delay and
    survival share so per-flow metrics cost O(1).

    Flows live in a {!Flow_store.t} (struct-of-arrays), and both
    {!assign} and {!metrics_into} can spread 16-source stripes over a
    {!Domain_pool.t} through {!Domain_pool.parallel_for} (grain 1, sweep
    scratch cached per participant slot).  In {!assign} each stripe
    records its (link, load) contributions into a private stream in
    sweep order, replayed in stripe order afterwards — the float
    additions happen in exactly the sequential source order.  In
    {!metrics_into} every write lands in a slot of a flow of the
    stripe's own sources, so there is nothing to replay.  Either way
    parallel output is bit-identical to sequential at any domain count.

    A [t] holds reusable scratch for one graph; steady-state sequential
    calls allocate nothing.  Results are deterministic: sweeps visit
    nodes in (hop count, node id) order and flows in their store order,
    so equal inputs give bit-equal outputs — though the {e floating-point
    grouping} differs from the per-flow baseline, which accumulates
    flow-by-flow (sums agree to rounding; the qcheck property in
    [test_sweep] pins this). *)

type t

val create : Graph.t -> t

val reserve_parallel : t -> slots:int -> unit
(** Size the parallel paths' scratch for a pool of [slots] participants:
    one sweep scratch per slot and one contribution stream per stripe.
    Both parallel calls do this on first use; a caller that sizes it when
    it sets up (as {!Flow_sim} does for a store large enough to fan out)
    keeps the first period from allocating it. *)

val assign :
  ?pool:Domain_pool.t ->
  t ->
  flows:Flow_store.t ->
  tree_for:(Node.t -> Spf_tree.t) ->
  sending:float array ->
  offered:float array ->
  first_hop:int array ->
  unit
(** Add every flow's sending rate ([sending.(i)] for flow index [i], bps)
    to [offered.(l)] for each link [l] on its path — [offered] is {b not}
    cleared first — and set [first_hop.(i)] to the flow's first link id,
    [-1] when the destination {e is} the source, or [-2] when the
    destination is unreachable on the source's tree.

    With [?pool] (of size > 1), source stripes run on pool domains with
    bit-identical results (see above); [tree_for] must then be safe to
    call concurrently — a pure lookup of pre-computed trees.

    The flow-to-source grouping is cached on the store's identity and
    {!Flow_store.version}; throttle writes don't invalidate it. *)

val metrics_into :
  ?pool:Domain_pool.t ->
  t ->
  flows:Flow_store.t ->
  tree_for:(Node.t -> Spf_tree.t) ->
  link_delay:float array ->
  link_pass:float array ->
  delay_s:float array ->
  share:float array ->
  hops:int array ->
  unit
(** Write every flow's path totals over the per-link tables into
    caller-owned per-flow arrays (length ≥ flows), visiting sources in
    node order and a source's flows in store order: [delay_s.(fi)] the
    sum of [link_delay], [share.(fi)] the product of [link_pass],
    [hops.(fi)] the path length.  [hops.(fi) = -1] marks an unreached
    flow (with [delay_s]/[share] zeroed).  Allocation-free: results land
    in arrays rather than a callback's boxed float arguments.

    With [?pool] (of size > 1), source stripes run on pool domains on the
    same stripes as {!assign}, with bit-identical results; as for
    {!assign}, [tree_for] must then be safe to call concurrently — a
    pure lookup of pre-computed trees. *)

val assign_baseline :
  t ->
  flows:Flow_store.t ->
  tree_for:(Node.t -> Spf_tree.t) ->
  sending:float array ->
  offered:float array ->
  first_hop:int array ->
  unit
(** The historical per-flow tree climb, identical contract to the
    sequential {!assign} (up to floating-point grouping of the sums).
    Kept as the reference implementation for property tests and the
    [bench sim] speedup row. *)
