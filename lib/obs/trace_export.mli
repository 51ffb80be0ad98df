(** Offline exporters for {!Tracer} rings.

    Chrome trace-event JSON (the ["traceEvents"] array format) loads
    directly in Perfetto or [chrome://tracing]: one process, one track
    (tid) per recorded domain, named [domain<slot>].  Under the
    {!Tracer.Untimed} clock timestamps are the per-track sequence numbers
    and the output is byte-deterministic; under wall clocks timestamps
    are microseconds.

    What a trace holds depends on the simulator: a flow-simulator trace
    carries its routing-period phases, per-period counters and SPF
    engine spans; a packet-level trace carries only the SPF engines'
    spans (and the domain pool's chunks), because the packet simulator
    records its phase spans in the bundle's {!Span} profile alone.

    {!digest} summarizes a parsed Chrome trace without a browser: event
    counts per track and total span time per name (begin/end pairs
    matched per track, innermost-first). *)

val chrome_json : Tracer.t -> Json.t
(** The complete trace object: [{"traceEvents": [...], ...}].  Includes
    thread-name metadata per track and per-track drop counts under
    ["otherData"]. *)

val write_chrome : Tracer.t -> string -> unit
(** Serialize {!chrome_json} to a file. *)

type digest = {
  tracks : (int * int) list;  (** (tid, event count), sorted by tid *)
  span_totals : (string * float) list;
      (** per-name summed begin→end duration in the trace's own time
          unit, sorted by name *)
  total_events : int;  (** events across all tracks, metadata excluded *)
  dropped : int;  (** drop count recorded at export time, if present *)
}

val digest : Json.t -> (digest, string) result
(** Digest a parsed Chrome trace.  Fails when ["traceEvents"] is missing
    or not a list; unknown phases are counted but otherwise ignored;
    unmatched begins/ends are tolerated. *)

val pp_digest : Format.formatter -> digest -> unit
