open! Import

(** L0xx — source lint for the Domain-parallel SPF path.

    [Spf_engine] fans per-source Dijkstra computations out over OCaml 5
    domains and promises bit-identical parallel and sequential results
    (DESIGN.md §6).  That proof rests on two properties no type checker
    enforces: the hot path reads only frozen data, and nothing in it
    consults ambient nondeterminism.  This pass parses every [.ml] file
    of the {e source tree} ([Parse.implementation], no ppx) and walks the
    parse tree for the constructs that break them; comments and string
    literals are not code, so naming a banned construct in them never
    trips the lint:

    - [L000] (error) — the file does not parse: one diagnostic at the
      parser's location, and no rule reads the rest of the file
    - [L001] (error) — [Random.self_init] anywhere under the root:
      seeds must be explicit ({!Routing_stats.Rng}) or runs stop being
      reproducible
    - [L002] (error) — [Unix.gettimeofday] or [Sys.time] outside the
      one pluggable-clock module, [lib/obs/tracer.ml]: wall-clock reads
      belong behind the {!Routing_obs.Tracer} [Wall] clock, which the
      stage profiles share
    - [L003] (error) — top-level mutable state (a toplevel value binding
      whose initializer is an application of [ref], [Hashtbl.create],
      [Queue.create], [Buffer.create] or [Atomic.make]; a function's
      body runs per call and is not state) in a library reachable from
      [routing_spf]'s dune dependency closure — shared cells domains
      could race on

    The dependency closure is computed from the [dune] files under the
    root, so a new library that links into the SPF path is linted
    automatically.  Data races the lint cannot see are the tsan build
    profile's job (DESIGN.md §8). *)

val spf_reachable : root:string -> string list
(** Directories (relative to [root]) of the libraries in
    [routing_spf]'s dependency closure, itself included — parsed from
    the [dune] files.  Exposed for tests and for the CLI's verbose
    output. *)

val scan_file : in_spf_closure:bool -> string -> Diagnostic.t list
(** Lint one implementation file; [in_spf_closure] arms the [L003] scan.
    Diagnostics come in line order. *)

val check_tree : root:string -> Diagnostic.t list
(** Lint every [.ml] file under [root] (recursively; [_build] and dot
    directories skipped).  Interfaces hold no expressions and are not
    read.  [L003] only fires inside {!spf_reachable} directories. *)
