open! Import

(** Control-theoretic stability of the routing loop (§5).

    "In terms of control theory, HN-SPF changes both the equilibrium point
    and the gain of the routing algorithm."  The routing loop iterates
    [x' = M(load * n(x))] — cost to traffic to cost — once per period; a
    fixed point is locally stable when the magnitude of that map's slope
    (the {e loop gain}) is below 1, oscillatory-divergent when above.

    The gain is evaluated numerically on the {e continuous} composed map
    (the metric map before integer rounding), matching the paper's
    analysis; the integer-unit implementation adds a half-unit dead band
    on top. *)

type report = {
  offered_load : float;
  equilibrium_cost_hops : float;
  equilibrium_utilization : float;
  raw_gain : float;
      (** signed slope d x'/d x of the unfiltered loop at the equilibrium —
          negative, because more cost sheds traffic which lowers cost *)
  effective_gain : float;
      (** dominant eigenvalue magnitude including the metric's own
          dynamics: D-SPF reacts to the raw loop (|g|); HN-SPF's 0.5/0.5
          averaging filter gives |0.5 + 0.5 g|, which tames any
          g > −3 — the quantitative content of "the averaging filter used
          by HN-SPF also affects the behavior" (§5.4) *)
  stable : bool;  (** [effective_gain < 1] *)
}

val analyze :
  Metric.kind ->
  Link.t ->
  Response_map.t ->
  offered_load:float ->
  report
(** Gain of one iteration of the routing loop at the fixed point.
    Min-hop is static: gain 0. *)

val analyze_hnm :
  ?averaging:bool ->
  Hnm_params.t ->
  Link.t ->
  Response_map.t ->
  offered_load:float ->
  report
(** {!analyze} for HN-SPF under an explicit (possibly user-overridden)
    parameter table entry instead of the built-in one — the entry point
    of [routing_check]'s static stability pass.  [averaging] (default
    true) models the 0.5/0.5 recursive filter; with it off the
    effective gain is the raw |g|, which is how a parameter set that
    disables the filter reintroduces §3.3's oscillation. *)
