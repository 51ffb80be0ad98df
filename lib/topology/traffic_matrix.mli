(** Node-to-node offered traffic, in bits/second.

    The paper's equilibrium model (§5) and the measurement study (§6) are
    both driven by a "peak hour traffic matrix"; this module holds that
    matrix and the generators that synthesize one for our ARPANET-like
    topology (the BBN matrix itself being unavailable — see DESIGN.md §2). *)

type t

val create : nodes:int -> t
(** All-zero matrix for a network of [nodes] nodes. *)

val nodes : t -> int

val get : t -> src:Node.t -> dst:Node.t -> float

val set : t -> src:Node.t -> dst:Node.t -> float -> unit
(** Diagonal entries are forced to zero (no self traffic). *)

val add : t -> src:Node.t -> dst:Node.t -> float -> unit

val scale : t -> float -> t
(** Fresh matrix with every demand multiplied by the factor. *)

val valid_scale : float -> bool
(** Whether a factor is a load scale the simulators model: finite and
    positive.  [arpanet_sim --scale] refuses any other, and so does a
    sweep spec (S105). *)

val copy : t -> t

val total_bps : t -> float

val flow_count : t -> int
(** Number of nonzero demands. *)

val iter : t -> (src:Node.t -> dst:Node.t -> float -> unit) -> unit
(** Visits positive entries only, row-major: sources ascending, then
    destinations ascending. *)

val flows : t -> int array * int array * float array
(** [(srcs, dsts, demands)]: the entries {!iter} visits, in its order,
    as fresh exact-size columns of node ids and demands, built without a
    closure — for simulators that keep flows as columns. *)

val offered_from : t -> Node.t -> float
(** Total traffic sourced at a node. *)

val offered_to : t -> Node.t -> float
(** Total traffic sunk at a node: the node's column summed over the
    entries {!iter} visits, sources ascending — the same additions in the
    same order as accumulating [iter]'s demands per destination, without
    walking the rest of the matrix. *)

(** {2 Generators} *)

val uniform : nodes:int -> pair_bps:float -> t
(** Every ordered pair offers [pair_bps]. *)

val gravity : Routing_stats.Rng.t -> nodes:int -> total_bps:float -> t
(** Gravity model: each node gets a random mass (log-uniform over one decade)
    and demand src->dst is proportional to [mass src * mass dst].  Produces
    the "several small node-to-node flows" regime where the paper says
    single-path routing works best (§4.5). *)

val hotspot :
  Routing_stats.Rng.t ->
  nodes:int ->
  background_bps:float ->
  hotspots:(Node.t * Node.t * float) list ->
  t
(** Uniform background plus explicit heavy flows — the "several large flows"
    regime used to probe HN-SPF's limits. *)

val pp_summary : Format.formatter -> t -> unit
