(** A small reusable pool of worker domains for embarrassingly parallel
    index loops — built on OCaml 5 [Domain] + [Mutex]/[Condition] only.

    One loop, {!parallel_for}, with one handout: work stealing.  It runs
    the simulator's three kinds of parallel work — full per-source SPF
    recomputes, flow stripes (load assignment and per-flow metrics) and
    sweep grid points.
    Scheduling is nondeterministic, but as long as [f s i] writes only to
    slot [i] of some result array (and to its own private state [s]) the
    outcome is bit-identical to the sequential loop; a pool of [size] 1
    spawns no domains and {e is} the sequential loop. *)

type t

val create : int -> t
(** [create size] makes a pool of [size] participants ([size >= 1]): the
    caller plus [size - 1] worker domains, which the first
    {!parallel_for} that fans out spawns.  A pool whose loops all run
    inline (size 1, or single-index loops) never spawns any.  Workers
    idle on a condition variable between loops.
    @raise Invalid_argument if [size < 1]. *)

val size : t -> int

type probe = {
  chunk_begin : label:int -> lo:int -> hi:int -> unit;
  chunk_end : label:int -> lo:int -> hi:int -> unit;
}
(** Observer hooks fired by whichever domain runs a claimed block of loop
    indices, from that domain, around the block's execution.  [label] is
    the loop's [?label] (-1 when unlabeled); [lo]/[hi] bound the index
    range ([hi] exclusive).  Built for the flight recorder
    ({!Routing_obs.Tracer.pool_probe}): each worker domain records which
    indices it ran and when. *)

val set_probe : t -> probe option -> unit
(** Install (or clear) the probe.  Not synchronized with a loop already in
    flight — set it between loops.  Hooks must be thread-safe and cheap;
    they run on worker domains inside the work loop. *)

val parallel_for :
  ?grain:int ->
  ?label:int ->
  t ->
  init:(int -> 's) ->
  int ->
  ('s -> int -> unit) ->
  unit
(** [parallel_for t ~init n f] runs [f s i] for every [i] in
    [0 .. n-1] and returns when all are done.

    Every participating domain (workers and the caller alike) evaluates
    [init slot] once before claiming indices and threads the resulting
    private state [s] through its share of the loop, where [slot] is the
    participant's stable slot in [0, {!size}) — the caller is slot 0.
    Because at most one domain holds a given slot per loop, [init] may
    hand out scratch {e cached by slot} across loops (allocation-free
    steady state) or allocate fresh state; either way states never cross
    domains during a loop, so [f] may mutate its state freely.  Bodies
    that need no state pass [~init:ignore].

    The handout is work stealing: every participant starts with an equal
    slice of [0 .. n-1] and claims [grain] (default 1) indices at a time
    from the bottom of its own slice; a domain that runs dry steals the
    top half of another's remaining range (or the whole remainder when
    it is no bigger than [grain]).  A heavy index therefore never
    serializes the rest of a static share behind it, and a larger
    [grain] amortizes the claims for cheap, even bodies.

    If any [f s i] (or [init]) raises, the first exception is re-raised
    in the caller after the loop drains (remaining indices still run).
    Loops do not nest: a pool runs one loop at a time, and calling from
    within [f] is an error.  [label] (default -1) tags the loop for the
    installed {!probe}, fired once per claimed block; the pool itself
    never interprets it.

    @raise Invalid_argument if [n >= 2^31] (ranges are packed into one
    immediate int). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; the pool cannot be used
    afterwards.  Pools that are simply dropped release their workers via a
    finalizer, so calling this is only required for prompt reclamation. *)

val resolve : ?requested:int -> unit -> int
(** The one domain-count resolution path shared by every CLI and library
    default.  [resolve ~requested ()] maps an explicit request — a
    [--domains] argument — to a pool size: [n >= 1] is clamped to
    [1, 128], and [0] means "size to this machine" ({!recommended_size}).
    With no [?requested], the [ARPANET_DOMAINS] environment variable is
    read under the same rules ([0] → {!recommended_size}), and an unset or
    unparseable variable yields 1, the sequential path.

    @raise Invalid_argument if [requested] is negative. *)

val recommended_size : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1 — a sensible
    upper bound leaving one core for the rest of the program. *)
