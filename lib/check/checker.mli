open! Import

(** Orchestration: the full analysis pipeline behind [arpanet_check]
    and [arpanet_sim --check].

    A scenario file flows through {!Scenario_check} (S0xx), then — on
    the best-effort parse — {!Topology_check} (T0xx) and, unless
    disabled, {!Stability_check} (R0xx) with whatever parameter table
    is in force.  Parameter files flow through {!Params_check} (P0xx)
    and feed the stability pass.  Exit status is
    {!Diagnostic.exit_code} of everything found. *)

type options = {
  stability : bool;  (** run the R0xx sweep (response-map cost) *)
  params : Params_check.file option;
      (** user table overriding the built-in {!Hnm_params} defaults *)
}

val default_options : options
(** Stability on, built-in parameter table. *)

val check_scenario_file : ?options:options -> string -> Diagnostic.t list

val check_params_file : string -> Diagnostic.t list * Params_check.file option
(** P0xx over a JSON parameter file; decode failures are a single
    [P000] error. *)

val check_default_table : unit -> Diagnostic.t list
(** P0xx over the built-in {!Hnm_params.all} — what [arpanet_check]
    runs with no arguments, and a permanent self-check that the shipped
    constants satisfy the paper's own invariants. *)
