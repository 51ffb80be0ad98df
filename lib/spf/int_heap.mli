(** Binary min-heap of int values ordered by [(key, tie)].

    Entries pop in lexicographic [(key, tie)] order.  Dijkstra, the
    repair loop and the multipath library's reverse SPF all use the
    arriving link id (or, in reverse SPF, the node itself) as the tie,
    which fixes the value: entries with equal [(key, tie)] carry the same
    value, so every pop sequence is fully determined.  There is no
    decrease-key: callers re-push and discard stale entries on pop
    ("lazy deletion").  Keys may arrive in any order; nothing requires a
    push to be at or above the last popped key.

    Stored as three int columns, so pushing and popping allocate nothing
    once {!reserve} has sized them.  It is the repo's only SPF priority
    queue. *)

type t

val create : unit -> t
(** An empty heap with no capacity. *)

val reserve : t -> int -> unit
(** [reserve t n] makes room for [n] live entries, so a heap reserved
    for the most entries a run can hold at once never grows during it —
    Dijkstra holds at most L + 1 (one per relaxed link, plus the root),
    a repair at most N + 2L.  Past the reservation the columns double. *)

val capacity : t -> int
(** Entries the columns hold before they next grow. *)

val is_empty : t -> bool

val length : t -> int

val push : t -> key:int -> tie:int -> int -> unit
(** [push t ~key ~tie v] inserts [v]. *)

type slot = { mutable key : int; mutable tie : int; mutable value : int }
(** A caller-owned out-cell for {!pop_min_into}: one slot per scratch is
    reused for every pop, so popping boxes nothing. *)

val slot : unit -> slot

val pop_min_into : t -> slot -> bool
(** [pop_min_into t s] removes the entry with the lexicographically
    smallest [(key, tie)] into [s] and returns [true], or returns [false]
    (leaving [s] untouched) when the heap is empty. *)

val clear : t -> unit
(** Empty the heap in O(1); the columns keep their capacity. *)
