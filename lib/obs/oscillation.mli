(** Route-oscillation detection — the paper's headline pathology as a
    first-class measurement.

    Under the pre-revision D-SPF metric a loaded link's reported cost
    swings between extremes every routing period (§3.3, Fig 1): traffic
    chases the cheap link, makes it expensive, and stampedes back.  The
    detector watches each link's reported cost and counts {e direction
    flips} — a rise immediately followed by a fall or vice versa — inside
    a sliding window of ticks (routing periods).  A link whose flip count
    exceeds [max_flips] is flagged as oscillating.

    HN-SPF's bounded per-period movement and narrowed dynamic range keep
    flip counts below any reasonable threshold, so the detector separates
    the two metrics cleanly on the same workload (see
    [test_obs.ml]'s fixed-seed scenario assertion).

    Each simulator owns one detector and feeds it every link once per
    routing period, so its flip totals are the run's link-flip counter
    and its flags are the telemetry bundle's.  Per-link state lives in
    int columns and a ring of flip ticks, so {!observe} allocates
    nothing. *)

type t

val create : ?window:int -> ?max_flips:int -> links:int -> unit -> t
(** Track [links] links.  A link is flagged when more than [max_flips]
    direction flips (default 4) land within the trailing [window] ticks
    (default 12: 120 s of routing periods), the current tick included.
    @raise Invalid_argument if [links < 0], [window < 1] or
    [max_flips < 1]. *)

val observe :
  ?on_flag:(link:int -> tick:int -> flips:int -> unit) ->
  t -> link:int -> tick:int -> cost:int -> unit
(** Feed one link's reported cost at [tick], typically once per routing
    period.  Each link must be observed at most once per tick, at ticks
    that do not decrease — both simulators feed every link once per
    routing period.  [on_flag] fires on the observation that tips the
    link from calm to flagged (once per calm→flagged transition, not
    per period). *)

val flips_in_window : t -> link:int -> int
(** Flips inside the window as of the link's last observation. *)

val link_total_flips : t -> link:int -> int
(** Direction flips ever observed on a link, independent of the sliding
    window — the Rzepka & Chołda-style change counter sweep reports use. *)

val total_flips : t -> int
(** Sum of {!link_total_flips} over all links. *)

val flagged : t -> int list
(** Links currently over threshold, ascending. *)

val ever_flagged : t -> int list
(** Links flagged at any point in the run, ascending — survives the
    window draining. *)

val flag_count : t -> int
(** Total calm→flagged transitions across all links. *)
