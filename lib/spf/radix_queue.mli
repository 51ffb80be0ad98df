(** Monotone integer priority queue (one-level radix heap).

    The SPF inner loop is a textbook monotone workload: every key pushed is
    at least the key last popped (Dijkstra pushes [popped + edge_weight] and
    edge weights are positive).  A radix heap exploits this: keys are binned
    by the position of their highest bit differing from the last popped key,
    so {!push} is O(1) and {!pop_min} is amortized O(log C) where [C] bounds
    the key range — composite SPF weights are bounded by
    [Dijkstra.max_link_cost] per link, which is the whole reason the paper's
    8-bit metric admits this structure.  There is no decrease-key: callers
    re-push and discard stale entries ("lazy deletion"), which the O(1)
    push makes free.

    Entries are ordered lexicographically by [(key, tie)]; Dijkstra uses the
    arriving link id as the tie so pops are fully deterministic.  It is the
    repo's only priority queue: {!Dijkstra}, {!Spf_repair} and the
    multipath library's reverse SPF all run on it. *)

type t

val create : unit -> t
(** An empty queue with last-popped key 0: all pushed keys must be
    non-negative. *)

val reserve : t -> int -> unit
(** [reserve t n] makes room for [n] live entries.  Entries are kept in
    one pool whose popped slots are reused, so a queue reserved for the
    most entries a run can hold at once never grows during it —
    Dijkstra holds at most L + 1 (one per relaxed link, plus the root),
    a repair at most N + 2L.  Past the reservation the pool doubles. *)

val capacity : t -> int
(** Entries the pool holds before it next grows. *)

val is_empty : t -> bool

val length : t -> int

val last : t -> int
(** The key most recently popped (0 before any pop): the monotone floor
    below which {!push} refuses keys. *)

val push : t -> key:int -> tie:int -> int -> unit
(** [push t ~key ~tie v] inserts [v].
    @raise Invalid_argument if [key < last t] (monotonicity violation). *)

val pop_min : t -> (int * int * int) option
(** Remove and return the entry [(key, tie, value)] with the
    lexicographically smallest [(key, tie)]; [None] when empty.  Entries
    with identical [(key, tie)] pop in unspecified (but deterministic)
    order. *)

type slot = { mutable key : int; mutable tie : int; mutable value : int }
(** A caller-owned out-cell for {!pop_min_into}: the allocation-free pop
    the SPF inner loops use ({!pop_min} boxes an option and a triple per
    entry, which dominates the loop's allocation profile). *)

val slot : unit -> slot

val pop_min_into : t -> slot -> bool
(** [pop_min_into t s] pops the same entry {!pop_min} would into [s] and
    returns [true], or returns [false] (leaving [s] untouched) when the
    queue is empty.  Allocation-free; one slot per scratch is reused for
    every pop. *)

val clear : t -> unit
(** Empty the queue and reset the monotone floor to 0; the pool keeps
    its capacity. *)
