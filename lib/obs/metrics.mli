(** A labeled metrics registry: the run-wide measurement surface.

    Instruments are identified by a name plus a sorted label set
    (["drops", \[reason=ttl\]]).  Registration is idempotent — asking for
    the same (name, labels, kind) returns the existing instrument — and
    handles are plain mutable cells, so the hot path (bump a counter per
    dropped packet) is a single store.

    Three instrument kinds cover the paper's figures:
    - {e counters}: monotone integer totals (drops by reason, updates);
    - {e gauges}: last-write-wins floats (SPF engine counters at snapshot);
    - {e series}: timestamped float samples (per-link utilization and
      reported cost per routing period — Figs 5–8's raw material).

    {!to_json} renders a deterministic snapshot: instruments sort by name
    then labels, metadata by key.  With a fixed simulator seed two runs
    produce byte-identical snapshots. *)

type t

type labels = (string * string) list

val create : unit -> t

val set_meta : t -> string -> string -> unit
(** Attach free-form run metadata (git rev, seed, topology …), rendered
    under a ["meta"] object in the snapshot.  Re-setting a key overwrites
    it. *)

type counter

val counter : t -> ?labels:labels -> string -> counter
(** @raise Invalid_argument if (name, labels) exists with another kind. *)

val inc : ?by:int -> counter -> unit

val counter_value : counter -> int

type gauge

val gauge : t -> ?labels:labels -> string -> gauge

val set : gauge -> float -> unit

val gauge_value : gauge -> float

type series

val series : t -> ?labels:labels -> string -> series

val sample : series -> time:float -> float -> unit

val adopt_series : t -> ?labels:labels -> string -> Routing_stats.Time_series.t -> unit
(** Register an existing time series under the registry so snapshots
    include it — lets a simulator expose the series it already keeps
    without double recording.
    @raise Invalid_argument on a (name, labels) collision with a
    different instrument. *)

val merge : into:t -> t -> unit
(** Fold one registry into another, instrument by instrument in
    deterministic (name, labels) order: counters add, gauges take the
    source's value, series append the source's points, metadata keys
    overwrite.  Source instruments absent from [into] are deep-copied, so
    later mutation of either registry never aliases the other.  The sweep engine uses this
    to combine per-domain registries into one report whose bytes are
    independent of the domain count — merge in a fixed order (point
    index), not completion order.
    @raise Invalid_argument if a (name, labels) pair carries different
    instrument kinds in the two registries. *)

val to_json : ?extra:(string * Json.t) list -> t -> Json.t
(** The full snapshot; [extra] appends additional top-level fields (the
    span profile, say) after ["meta"] and ["metrics"]. *)

val write_file : ?extra:(string * Json.t) list -> t -> string -> unit
(** Pretty-printed {!to_json} plus a trailing newline. *)
