open! Import

(** Update-generation policy: when is a cost change worth flooding?

    §2.2: a routing update is generated when the newly measured cost
    differs from the last reported value by more than a significance
    threshold; "the significance criterion gets adjusted downward each time
    it is not satisfied … the maximum time between routing updates for each
    PSN is 50 seconds".

    D-SPF uses the decaying threshold.  The HNM replaces it with a fixed
    threshold of a little less than a half-hop (§4.3), still backed by the
    50-second reliability flood. *)

type policy =
  | Decaying of { initial : float; step : float }
      (** flood when |Δcost| ≥ threshold; otherwise lower the threshold by
          [step] and try again next period *)
  | Fixed of int  (** flood when |Δcost| ≥ the constant *)

val dspf_policy : policy
(** The historical decaying criterion: 6.4 units (64 ms) decaying in five
    10-second steps to zero, matching the 50-second bound. *)

type t

val create : policy -> initial_cost:int -> t
(** [initial_cost] is the value the rest of the network is assumed to hold
    for this link before any update. *)

val last_flooded : t -> int

val consider : t -> cost:int -> bool
(** Call exactly once per routing period with the newly computed cost.
    Returns [true] when an update must be flooded (significant change, or
    the 50-second reliability timer expired); updates internal state
    accordingly. *)

val force : t -> cost:int -> unit
(** Record an out-of-band flood (e.g. a link-up announcement). *)
