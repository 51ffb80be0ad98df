open! Import

(** Whole-network flood execution (transport-free).

    Runs one update through an array of per-node {!Flooder.t} states as a
    breadth-first wave, the way it unfolds when update processing is "a
    high priority process within the PSN" and transit times are tiny
    compared to routing periods (§3.2) — i.e. effectively instantaneous
    relative to the 10-second period.  Returns exact message accounting so
    experiments can report routing-overhead bandwidth.

    Under instant flooding that accounting depends on the topology alone,
    so the simulators charge {!instant_transmissions} per flood instead of
    walking it; {!flood} remains the protocol's reference walk (tests,
    examples, micro-benchmarks). *)

type outcome = {
  reached : int;  (** nodes that accepted the update (including origin) *)
  transmissions : int;  (** update messages sent over links *)
  duplicates : int;  (** messages discarded as already-seen *)
  bits : float;  (** total wire bits spent on this flood *)
}

val flood : Graph.t -> Flooder.t array -> Update.t -> outcome
(** [flood g flooders u] injects [u] at its origin and propagates until
    quiescent.  [flooders] is indexed by node id and is mutated. *)

val instant_transmissions : Graph.t -> int array
(** Per origin node, the transmissions {!flood} makes for one update from
    that origin: [L_c - N_c + 1], with [N_c] the nodes and [L_c] the
    simplex links of the origin's connected component.  One O(N + L) pass
    over the CSR adjacency.

    The count is exact for any update that is fresh everywhere — every
    flood under instant flooding, where each earlier flood has already
    finished.  The origin sends on all of its out-links; every other node
    in the component accepts the update exactly once and forwards it on
    all of its out-links except the reverse of the one it arrived on
    ({!Graph.make} pairs every link with exactly one reverse).  That is
    [L_c - (N_c - 1)] sends, whatever order the wave takes.  The walk
    never looks at link state, so the count does not depend on flooder
    history or on which trunks are up: simulators multiply it by
    {!Update.wire_bits} instead of walking each flood. *)

val instant_bits :
  int array -> link_src:int array -> changed_ids:int array -> count:int -> int
(** [instant_bits tx ~link_src ~changed_ids ~count]: the wire bits of
    instantly flooding one update per origin run of
    [changed_ids.(0 .. count - 1)] ({!Update.run_end}) — each run's
    [tx.(origin)] transmissions ([tx] from {!instant_transmissions})
    times {!Update.wire_bits} of the links it reports.  The one
    flood-charge rule every simulator's instant flooding applies.
    Int-only and allocation-free; every term and partial sum is an
    integer exact as a float. *)
