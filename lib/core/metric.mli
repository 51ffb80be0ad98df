open! Import

(** Network-wide link-cost management under a chosen metric.

    A [t] owns, for every link in the graph, the metric state (HNM filter,
    D-SPF measurement, or nothing for min-hop) and the update-generation
    policy, and tracks the distinction between a link's {e locally
    computed} cost and the cost {e the rest of the network believes}
    (the last flooded value).  Simulators drive it one routing period at a
    time; SPF consumes {!cost_fn}. *)

type kind =
  | Min_hop  (** static: every link costs one hop *)
  | Static_capacity
      (** static inverse-capacity costs — each link permanently at its
          HN-SPF idle cost.  Not in the paper: it is what OSPF later
          standardized (reference-bandwidth costs), included as the
          "where the lessons landed" baseline.  Equivalently: HN-SPF with
          its adaptive region disabled. *)
  | D_spf  (** measured-delay metric, May 1979 revision (§2.2) *)
  | Hn_spf  (** the revised hop-normalized metric, July 1987 (§4) *)

val kind_name : kind -> string

val kind_of_name : string -> kind option

type t

val create : kind -> Graph.t -> t
(** Every link starts at its idle cost (min-hop: 1). *)

val create_custom_hnspf : (Link.t -> Hnm.config) -> Graph.t -> t
(** HN-SPF with per-link parameter sets "tailored to the needs of
    individual networks" (§4.4) — also how the ablation benches disable
    individual HNM mechanisms.  {!kind} reports [Hn_spf]. *)

val kind : t -> kind

val graph : t -> Graph.t

val cost : t -> Link.id -> int
(** The flooded cost — what every PSN's SPF currently uses. *)

val local_cost : t -> Link.id -> int
(** The owning PSN's latest computed cost (may differ from {!cost} when the
    change wasn't significant enough to flood). *)

val cost_fn : t -> Link.id -> int
(** [cost] as a function, for {!Routing_spf.Dijkstra.compute}. *)

val period_update_all :
  t ->
  up:bool array ->
  link_delay_s:float array ->
  changed_ids:int array ->
  changed_costs:int array ->
  int
(** The routing period's metric pass, one call for every link: each link
    [i] with [up.(i)] is fed its measured average delay [link_delay_s.(i)]
    (delay → utilization → EWMA → transform → movement limits for
    HN-SPF, delay → units → bias floor for D-SPF), and floods when the
    change is significant or the 50-second timer fires; down links are
    skipped.
    Min-hop and static-capacity costs never move.

    Flooded links are written into [changed_ids]/[changed_costs]
    (caller-provided, length ≥ link count), and their number is
    returned; {!cost} already reads the new values.  The entries come
    grouped by the node that reports them: origins ascending, and link
    ids ascending within an origin — {!Routing_topology.Graph.csr_out}
    order — so each origin's run is one routing update
    ({!Routing_flooding.Update.run_end}).  Allocation-free; quiet periods
    touch no heap at all. *)

val link_up : t -> Link.id -> unit
(** Reset a link's state as freshly up.  Under HN-SPF the link eases in at
    its maximum cost (§5.4); under D-SPF it floods its idle delay. *)

val updates_flooded : t -> int
(** Total updates generated across all links since creation. *)

val reset_update_counter : t -> unit

val idle_cost : kind -> Link.t -> int
(** The cost an idle link reports under the metric (1 for min-hop). *)

val equilibrium_cost : kind -> Link.t -> utilization:float -> int
(** The steady-state cost at a held utilization — the Metric map of §5.3
    (1 for min-hop regardless of utilization). *)
