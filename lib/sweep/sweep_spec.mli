open! Import

(** Declarative sweep specifications: the grid a scenario sweep runs.

    A spec is a small JSON object naming four axes — scenarios, metrics,
    load scales, seeds — plus a period budget; the engine runs their
    cartesian product:

    {v
    {
      "scenarios": ["arpanet", "scenarios/two_region.scn"],
      "metrics":   ["dspf", "hnspf"],
      "scales":    [0.6, 1.0, 1.25],
      "seeds":     {"from": 1, "count": 4},
      "periods":   60,
      "warmup":    10
    }
    v}

    Scenario strings are either a builtin scenario name from
    {!Routing_sim.Script.builtins} ([arpanet] and [milnet] draw their
    peak-hour matrix from the point's seed; [two-region] runs Fig 1's
    demand whatever the seed) or a path to a {!Routing_sim.Script}
    scenario file (demands jittered per seed).  [metrics] defaults to
    [\["hnspf"\]], [scales] to [\[1.0\]], [seeds] to [\[0\]],
    [periods] to [60], [warmup] to [0].

    {!lint} reports every problem with a stable [S1xx] diagnostic code
    (catalogued in DESIGN.md §8) so [arpanet_sweep] and [routing_check]
    agree on what a broken spec looks like. *)

type scenario =
  | Builtin of string  (** a name in {!Routing_sim.Script.builtins} *)
  | File of string  (** a scenario-script path *)

(** A [critical_load] demand ramp: instead of listing [scales]
    explicitly, the spec names an interval and a step count —
    [{"critical_load": {"from": 0.5, "to": 3.0, "steps": 8}}] ([steps]
    defaults to 8) — and the parser expands it into [steps] evenly
    spaced scales.  The engine then locates the delay and throughput
    knees along the ramp per (scenario, metric) and publishes them in
    the report ({!Sweep_engine.report}).  Mutually exclusive with an
    explicit ["scales"] list. *)
type ramp = { ramp_from : float; ramp_to : float; ramp_steps : int }

type t = {
  scenarios : scenario list;
  metrics : Metric.kind list;
  scales : float list;
      (** explicit, or generated from [critical_load] when set *)
  seeds : int list;
  periods : int;  (** routing periods per point *)
  warmup : int;  (** leading periods excluded from indicators *)
  critical_load : ramp option;
      (** set iff the scale axis came from a ramp; asks the engine for
          knee detection *)
}

type severity = Error | Warning

type issue = { severity : severity; code : string; message : string }

val scenario_name : scenario -> string
(** The spec string the scenario came from — point labels and reports. *)

val parse : string -> (t, issue) result
(** Decode spec text.  Any shape problem — invalid JSON, wrong field
    type, unknown metric name — is one [S100] error.  A seed range
    [count] or a ramp's [steps] above 100,000 is one [S106] error,
    raised before the axis is expanded. *)

val lint : t -> issue list
(** Every grid problem, in axis order: [S101] unknown scenario (no such
    builtin, missing or unparseable file), [S102] empty axis, [S103]
    duplicate axis value, or several seeds for a builtin whose demand
    ignores the seed ({!Script.seeded}) (warnings), [S104] bad seed,
    [S105] scale out of range (an error when not finite or not positive,
    {!Traffic_matrix.valid_scale}), [S106] bad
    period/warmup budget or a grid of more than 100,000 points, [S109]
    degenerate [critical_load] ramp (fewer than 3 steps, a non-finite
    end, or a non-increasing interval).  The 100,000-point limit is the
    one the reports assume: the engine labels per-point metrics with a
    five-digit index. *)

val shard_of_string : string -> (int * int, issue) result
(** Parse a [--shard] argument ["I/N"] — this process runs grid points
    whose index ≡ I (mod N).  Any shape problem — not [I/N], [N < 1],
    [I] outside [\[0, N)] — is one [S107] error. *)

val lint_file : string -> issue list * t option
(** Read, {!parse}, {!lint}; unreadable files are an [S100] error and
    [None]. *)

val load : string -> (t, string) result
(** {!lint_file}, failing with the first error-severity issue. *)

val errors : issue list -> issue list
(** The error-severity subset — what blocks a run. *)
