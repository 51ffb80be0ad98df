(** Structural diagnostics of a topology.

    §5.2 rests on the ARPANET being "rich with alternate paths"; these
    functions make that property measurable.  A {e bridge trunk} is one
    whose failure disconnects the network — every flow crossing it is
    captive (it can never be shed by any reported cost, which is the floor
    in Fig 8's response map).  An {e articulation node} is a PSN whose
    failure disconnects the network. *)

val bridges : Graph.t -> Link.t list
(** Trunks (forward link of each pair) whose removal disconnects the
    graph.  A trunk with a parallel twin between the same PSNs is never a
    bridge. *)

val articulation_points : Graph.t -> Node.t list
(** Nodes whose removal disconnects the remaining graph, in id order. *)

val hop_counts_into : ?up:bool array -> Graph.t -> int array -> unit
(** Fill the [N × N] row-major table with every pair's minimum hop
    count over the links whose [up] flag (indexed by link id) is set
    (default: every link), [-1] where no path exists: entry
    [src * N + dst], one BFS per source over the CSR out-links.  The
    simulators' minimum-path baseline (Table 1's "Internode Minimum
    Path").
    @raise Invalid_argument if the table is not [N × N]. *)

val diameter_hops : Graph.t -> int
(** Longest shortest path in hops; [max_int] if disconnected, 0 for
    single-node graphs. *)

val captive_traffic_fraction : Graph.t -> Traffic_matrix.t -> float
(** Fraction of offered traffic whose source/destination pair is separated
    by removing some single trunk — i.e. traffic that crosses a bridge and
    can never be routed around it. *)

val pp_report : Format.formatter -> Graph.t -> unit
(** Bridges, articulation points, diameter and degree summary. *)
