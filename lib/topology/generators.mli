(** Synthetic topology families used by tests and experiments.

    [two_region] is the exact topology of the paper's Fig 1 oscillation
    example: two well-connected regions joined by two parallel inter-region
    links of equal bandwidth and propagation delay.  The others provide
    parameterized meshes for property tests and scaling studies. *)

val two_region :
  ?region_size:int ->
  ?bridge_type:Line_type.t ->
  unit ->
  Graph.t * (Link.id * Link.id)
(** Two cliques-of-rings of [region_size] nodes (default 8) named ["L*"] and
    ["R*"], joined by bridge trunks A (L0-R0) and B (L1-R1) of
    [bridge_type] (default 56 kb/s terrestrial).  Returns the graph and the
    forward link ids of the two bridges (left-to-right direction). *)

val two_region_traffic : Graph.t -> Traffic_matrix.t
(** Fig 1's demand on a {!two_region} graph: 1,300 b/s from every
    ["L*"] node to every ["R*"] node.  At the default region size that
    is 64 flows and 83.2 kb/s, about 74 % of the two bridges' combined
    112 kb/s — heavy enough that D-SPF oscillates between them. *)

val ring : ?line_type:Line_type.t -> int -> Graph.t
(** A simple cycle of [n] nodes.  @raise Invalid_argument if [n < 3]. *)

val ring_chord :
  ?line_type:Line_type.t ->
  Routing_stats.Rng.t ->
  nodes:int ->
  chords:int ->
  Graph.t
(** A ring plus [chords] random non-adjacent chords — connected by
    construction, rich in alternate paths. *)

val random_geometric :
  ?line_type:Line_type.t ->
  Routing_stats.Rng.t ->
  nodes:int ->
  radius:float ->
  Graph.t
(** Nodes placed uniformly in the unit square, connected when within
    [radius]; extra edges are added to stitch any disconnected components
    together, so the result is always connected. *)

val waxman :
  ?line_type:Line_type.t ->
  Routing_stats.Rng.t ->
  nodes:int ->
  alpha:float ->
  beta:float ->
  Graph.t
(** The classic Waxman random topology (Waxman 1988): nodes uniform in the
    unit square, a pair at distance [d] connected with probability
    [alpha *. exp (-. d /. (beta *. sqrt 2.))].  Grid-accelerated — pairs
    whose probability is below 1e-5 are never examined — and stitched to a
    single component along the x-sorted node order, so the result is
    always connected and deterministic in the given [rng].  Usable at
    10^5 nodes when [beta] keeps the neighborhood radius small.
    @raise Invalid_argument if [nodes < 2] or [alpha]/[beta] lie outside
    [(0, 1]]. *)

val hierarchical :
  ?core_type:Line_type.t ->
  ?pop_type:Line_type.t ->
  ?access_type:Line_type.t ->
  cores:int ->
  pops_per_core:int ->
  access_per_pop:int ->
  unit ->
  Graph.t
(** A three-tier ISP-like topology, fully deterministic: [cores] backbone
    nodes ["c*"] in a ring (457 kb/s trunks; skip-two chords when
    [cores >= 5]), each carrying [pops_per_core] PoPs ["c*p*"] dual-homed
    to their own and the next core (230 kb/s), each PoP carrying
    [access_per_pop] access nodes ["c*p*a*"] dual-homed to their own and
    the next PoP of the same core (56 kb/s).  Total nodes:
    [cores * (1 + pops_per_core * (1 + access_per_pop))].
    @raise Invalid_argument if [cores < 3], [pops_per_core < 1] or
    [access_per_pop < 0]. *)

(** A first-class description of a generated topology — what the bench
    CLI and {!Routing_check} validate before paying for generation. *)
type spec =
  | Waxman of { nodes : int; alpha : float; beta : float }
  | Hierarchical of { cores : int; pops_per_core : int; access_per_pop : int }

val spec_nodes : spec -> int
(** Node count the spec will generate, without generating. *)

val of_spec : Routing_stats.Rng.t -> spec -> Graph.t
(** Generate.  The [rng] is consumed only by stochastic families.
    @raise Invalid_argument exactly when the underlying generator would. *)

val line : ?line_type:Line_type.t -> int -> Graph.t
(** A path graph of [n] nodes — the degenerate no-alternate-paths case.
    @raise Invalid_argument if [n < 2]. *)

val full_mesh : ?line_type:Line_type.t -> int -> Graph.t
(** Every pair connected directly.  @raise Invalid_argument if [n < 2]. *)
