open! Import

(** Scripted scenarios: a topology, traffic, and timed events.

    Extends the {!Routing_topology.Serial} file format with [at] lines so a
    whole experiment — outages, revivals, the HNM install itself, traffic
    growth — replays from one file:

    {v
    trunk  MIT BBN 56T 0.002
    demand MIT BBN 20000
    at 120 link-down MIT BBN     # fail the trunk (both directions)
    at 300 link-up   MIT BBN     # revive it (HN-SPF eases it in)
    at 400 metric hnspf          # install the patch mid-run
    at 500 scale 1.25            # grow all demands 25%
    at 600 adaptive on           # sources start backing off under loss
    v}

    Events bind to the start of the routing period containing their time. *)

type action =
  | Link_down of string * string  (** node names; fails both directions *)
  | Link_up of string * string
  | Set_metric of Metric.kind
  | Scale_traffic of float  (** relative to the file's demands *)
  | Adaptive_sources of bool

type event = {
  at_s : float;
  action : action;
  line : int;  (** 1-based source line, for diagnostics *)
}

type t = {
  graph : Graph.t;
  traffic : Traffic_matrix.t;
  events : event list;  (** sorted by time *)
}

(** {2 Located errors}

    Every parse problem carries its source line; [kind] classifies the
    cross-reference failures so [routing_check] can assign stable
    diagnostic codes without string matching. *)

type error_kind =
  | Syntax  (** malformed line, bad value, unknown directive/metric *)
  | Unknown_node of string  (** event names a node no trunk introduced *)
  | No_trunk of string * string  (** event names a non-adjacent pair *)

type error = { line : int; kind : error_kind; message : string }

val parse : string -> (t, string) result
(** Parse a scenario file's text: [at] lines here, everything else via
    {!Routing_topology.Serial}.  Event node and trunk references are
    checked here, at parse time; the error string is the first problem,
    prefixed ["line %d:"]. *)

val lint : string -> error list * t
(** Like {!parse} but collects {e every} problem (sorted by line)
    alongside the best-effort scenario — bad lines are skipped, events
    with bad references kept.  [parse] succeeds iff the list is empty. *)

val load : string -> (t, string) result

val run :
  ?domains:int ->
  ?telemetry:Telemetry.t ->
  ?tracer:Tracer.t ->
  ?metric:Metric.kind ->
  ?on_period:(Flow_sim.t -> Flow_sim.period_stats -> unit) ->
  t ->
  periods:int ->
  Flow_sim.t
(** Replay on the flow simulator (initial metric defaults to [Hn_spf]),
    firing each event at the start of its period and calling [on_period]
    after every step.  A period with no event due and no [on_period]
    allocates nothing beyond {!Flow_sim.tick}.  [domains], [telemetry] and [tracer] pass through to
    {!Flow_sim.create} — a tracer flight-records every routing period of
    the replay.  Returns the simulator for inspection.
    @raise Invalid_argument if an event names an unknown node or a pair
    with no direct trunk — impossible for a [t] obtained from {!parse},
    which rejects such references up front. *)

(** {2 Builtin scenarios}

    The scenarios a name selects without a file.  [arpanet_sim
    --topology] and a sweep spec's ["scenarios"] list read this one
    catalogue; [arpanet_sim --topology NAME --dump] prints a builtin at
    a seed in the file format, and [scenarios/] ships those dumps at
    seed 7. *)

val builtins : string list
(** Every builtin name, in catalogue order: ["arpanet"], ["milnet"],
    ["two-region"]. *)

val builtin : string -> (Graph.t * (int -> Traffic_matrix.t)) option
(** [builtin name] builds [name]'s topology afresh and pairs it with its
    demand for a seed, a fresh matrix on that topology per call:
    - ["arpanet"] and ["milnet"]: the synthesized peak-hour matrix drawn
      from [Rng.create seed]
      ({!Routing_topology.Arpanet.peak_traffic},
      {!Routing_topology.Milnet.peak_traffic});
    - ["two-region"]: Fig 1's demand
      ({!Routing_topology.Generators.two_region_traffic}), whatever the
      seed.

    [None] for a name not in {!builtins}. *)

val seeded : string -> bool
(** Whether builtin [name]'s demand reads the seed: [false] for
    ["two-region"], whose every seed gives the same matrix, and for a
    name not in {!builtins}. *)
