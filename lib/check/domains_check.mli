(** D0xx — domain-safety lint over the build's typed ASTs.

    Finds every closure passed to [Domain_pool.parallel_for], the pool's
    one loop (including bodies bound to a name first), and flags
    shared mutable state the body captures from its enclosing scope:
    captured refs assigned ([D001], error), mutable record fields set
    ([D002], error), Bytes writes ([D003], error), array writes whose
    index does not depend on a body-local variable ([D004], warning),
    and arrays written by both the parallel body and the enclosing
    sequential fallback ([D005], info).  [D000] flags unreadable
    artifacts.  Per-worker scratch passed as a body parameter and
    [Atomic] operations are exempt by construction.  Catalogue in
    DESIGN.md §8. *)

val check : roots:string list -> Diagnostic.t list
(** [check ~roots] scans the directories (typically
    [_build/default/lib]) recursively for [.cmt] artifacts and lints
    every compilation unit found.  Diagnostics come back in emission
    order; callers merge and sort. *)
