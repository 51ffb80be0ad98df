(** Streaming quantile estimation (the P² algorithm, Jain & Chlamtac 1985).

    Tracks one quantile of an unbounded stream in O(1) memory without
    binning assumptions — used for delay percentiles where a histogram's
    fixed range would clip congested-period tails.  Estimates are exact
    until five observations arrive and then follow the piecewise-parabolic
    marker update. *)

type t

val create : float -> t
(** [create p] tracks the [p]-quantile, [0 < p < 1].
    @raise Invalid_argument outside that range. *)

val quantile : t -> float
(** The tracked probability. *)

val add : t -> float -> unit

val count : t -> int

val markers : t -> float array
(** A copy of the five marker heights: all zero before the fifth
    observation, then the first five observations in [Float.compare]
    order, which the P² updates move from there. *)

val value : t -> float
(** Current estimate; [nan] before any observation.  Exact while fewer
    than five observations have been seen. *)
