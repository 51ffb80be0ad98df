open! Import

(** Routing units — the integer cost currency of ARPANET routing updates.

    One routing unit represents 10 ms of delay under the delay metric; the
    HNM reuses the same integer field with its own normalization.  The
    anchor values reproduce the ratios stated in the paper: a 56 kb/s
    terrestrial line's D-SPF bias is 2 units; the maximum reportable cost
    is 254 units, so "a heavily loaded 9.6 kb/s line can appear 127 times
    less attractive than a lightly loaded 56 kb/s line" (§3.2); and one
    {e hop} in HN-SPF normalization is 30 units (§4.2). *)

val unit_ms : float
(** Milliseconds of measured delay per routing unit (10 ms). *)

val max_cost : int
(** 254 — the largest reportable link cost. *)

val hop : int
(** 30 — routing units per hop: the cost an idle 56 kb/s terrestrial line
    reports under HN-SPF, used network-wide to express costs in hops. *)

val of_delay : float -> int
(** [of_delay seconds] converts a measured delay to routing units, rounding
    to nearest and clamping to [\[1, max_cost\]]. *)

val of_delay_into :
  up:bool array -> delay_s:float array -> units:int array -> unit
(** Batch {!of_delay} over every index with [up.(i)] set (others are left
    untouched) — keeps D-SPF's per-link conversion inside this module so
    the flow simulator's period update stays allocation-free. *)

val hops_of_cost : int -> float
(** Express a cost in hops: [cost / 30.]. *)

val cost_of_hops : float -> int
(** Round a hop count back to routing units, clamped to
    [\[1, max_cost\]]. *)

val routing_period_s : float
(** 10 s — the measurement/reporting interval (§2.2). *)

val max_update_interval_s : float
(** 50 s — a PSN floods an update at least this often (§2.2). *)

val average_packet_bits : float
(** 600 — the network-wide average packet size used by the M/M/1
    estimator (§4.1). *)
