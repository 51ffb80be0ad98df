open! Import

(** The flow simulator's control loop with ECMP forwarding.

    Identical 10-second routing-period structure to
    {!Routing_sim.Flow_sim} — measured (analytic M/M/1/K) delays feed the
    metric, significant changes flood, everyone reroutes — but traffic is
    spread over {e all} equal-cost paths instead of a single tree.  This is
    the §4.5 extension: with it, a single large flow can use both of two
    parallel trunks at once, removing the limit cycle single-path HN-SPF
    falls into when one indivisible flow dominates a link. *)

type period_stats = {
  time_s : float;
  offered_bps : float;
  delivered_bps : float;  (** after per-link M/M/1/K loss *)
  dropped_bps : float;
  mean_delay_s : float;  (** delivered-weighted expected one-way delay *)
  updates : int;  (** one per origin with a flooded change *)
  update_bits : float;  (** their instant floods' wire bits *)
  max_utilization : float;
}

type t

val create : Graph.t -> Metric.kind -> Traffic_matrix.t -> t

val create_with : Graph.t -> Metric.t -> Traffic_matrix.t -> t

val graph : t -> Graph.t

val metric : t -> Metric.t

val step : t -> period_stats

val run : t -> periods:int -> period_stats list

val link_utilization : t -> Link.id -> float
(** Offered/capacity in the most recent period (0 before any step). *)

val link_cost : t -> Link.id -> int

val history : t -> period_stats list
(** Oldest first. *)

val mean_delivered_bps : t -> skip:int -> float
(** Average delivered rate over the retained periods after [skip]. *)
