open! Import

(** Network-wide performance indicators — the quantities of Table 1.

    Both simulators produce the same {!indicators} record so before/after
    comparisons print uniformly. *)

type indicators = {
  elapsed_s : float;
  internode_traffic_bps : float;  (** delivered end-to-end throughput *)
  round_trip_delay_ms : float;  (** 2 × mean one-way packet delay *)
  updates_per_s : float;  (** routing updates generated network-wide / s *)
  update_period_per_node_s : float;  (** mean seconds between one node's updates *)
  actual_path_hops : float;  (** mean links traversed per delivered message *)
  minimum_path_hops : float;  (** mean min-hop distance of the same messages *)
  path_ratio : float;  (** actual / minimum *)
  dropped_per_s : float;  (** packets dropped per second *)
  overhead_bps : float;  (** link bandwidth consumed by routing updates *)
  delay_p50_ms : float;  (** streaming (P²) one-way delay median *)
  delay_p95_ms : float;  (** 95th-percentile one-way delay *)
  delay_p99_ms : float;  (** 99th-percentile one-way delay *)
  route_changes_per_period : float;
      (** flows whose first hop changed, per routing period — §3.3's route
          oscillation averaged over the run *)
  next_hop_flips_per_period : float;
      (** A→B→A first-hop flips per period (the flow came straight back to
          the hop it used two periods ago) — the sharpest oscillation
          signature, after Rzepka & Chołda's route-change counters *)
  link_flips_per_period : float;
      (** per-link cost direction flips per period, summed over links
          ({!Routing_obs.Oscillation.total_flips}) *)
}

val fields : (string * (indicators -> float)) list
(** Every field of {!indicators} with its name, in record order: the
    keys of {!to_json}'s object, the indicator columns of the sweep
    CSV and, prefixed ["indicator_"], {!export}'s gauges. *)

val to_json : indicators -> Obs_json.t
(** One object keyed by {!fields}' names, in record order.  The
    printer's rules hold: NaN prints as [null], ±∞ as [±1e999], and a
    finite value as the shortest decimal that reads back to it. *)

val of_json : Obs_json.t -> (indicators, string) result
(** Decode {!to_json}'s object: [null] reads back as NaN, so
    re-encoding a decoded record gives the same bytes.  Extra keys are
    ignored; the error names the first missing or non-numeric field. *)

val pp_indicators : Format.formatter -> indicators -> unit

val comparison_table :
  ?title:string -> (string * indicators) list -> Routing_stats.Table.t
(** Table 1's layout: one column per labelled run, one row per indicator. *)

val export :
  ?labels:Obs_metrics.labels -> Obs_metrics.t -> indicators -> unit
(** Publish every indicator as an [indicator_*] gauge named after its
    {!fields} entry, so [--metrics-out] snapshots carry the Table-1
    summary alongside the raw series. *)

(** {2 Accumulation} *)

type t

val create : nodes:int -> t

val record_delivery :
  t -> delay_s:float -> bits:float -> hops:int -> min_hops:int -> unit

val record_drop : t -> unit

val record_updates : t -> count:int -> bits:float -> unit

val delivered_packets : t -> int

val dropped_packets : t -> int

val median_delay_ms : t -> float
(** Streaming (P²) estimate of the one-way delay median; [nan] when
    empty. *)

val p95_delay_ms : t -> float
(** Streaming (P²) estimate of the 95th-percentile one-way delay — the
    congested tail Table 1's mean hides. *)

val quantile_ms : Routing_stats.Quantile.t -> float
(** A P² estimate of a delay in seconds, in ms, read as [0.] before the
    estimator's first observation: the percentile indicators of both
    simulators. *)

val indicators : t -> elapsed_s:float -> indicators
(** The route-change indicators are reported as [0.] here: the packet
    accumulator has no flow identity to diff first hops against.  The flow
    simulator fills them from its own per-period counters.
    @raise Invalid_argument if [elapsed_s <= 0]. *)

val reset : t -> unit
