(** Static network topology: the node and link structure every PSN knows.

    In the ARPANET "each node or PSN … has full knowledge of the topology of
    the network" (§2.2); only link {e costs} are dynamic and they live
    outside this structure (in per-link arrays owned by the metric and
    simulation layers, indexed by {!Link.id}).  A [t] is immutable once
    built. *)

type t

val node_count : t -> int

val link_count : t -> int
(** Number of simplex links (twice the number of physical trunk bundles). *)

val nodes : t -> Node.t list
(** All nodes in id order. *)

val links : t -> Link.t list
(** All links in id order. *)

val node_name : t -> Node.t -> string

val node_by_name : t -> string -> Node.t option

val link : t -> Link.id -> Link.t
(** @raise Invalid_argument for an unknown id. *)

val out_links : t -> Node.t -> Link.t list
(** Links whose [src] is the given node. *)

val in_links : t -> Node.t -> Link.t list

(** {2 Flat (CSR) adjacency} — the hot-path view of the same structure.

    Shortest-path computation visits every out-link of every node once per
    source; the list API allocates nothing but chases a cons cell per edge.
    These accessors expose the adjacency as compact int arrays instead.
    The arrays are the graph's own — {b treat them as read-only}. *)

val csr_out : t -> int array * int array * int array
(** [csr_out g] is [(off, link_ids, dsts)]: the out-links of node [i] are
    [link_ids.(off.(i)) .. link_ids.(off.(i+1) - 1)], in ascending link-id
    order (exactly the order {!out_links} presents), and [dsts.(k)] is the
    destination node id of [link_ids.(k)].  [off] has [node_count + 1]
    entries; [link_ids] and [dsts] have [link_count]. *)

val csr_in : t -> int array * int array
(** [csr_in g] is [(off, link_ids)]: the in-links of node [i], grouped and
    ordered as {!in_links} presents them. *)

val csr_out_off : t -> int array
(** The components of {!csr_out} / {!csr_in} individually, without the
    tuple allocation — for callers fetching them inside allocation-free
    paths. *)

val csr_out_link_ids : t -> int array

val csr_out_dst : t -> int array

val csr_in_off : t -> int array

val csr_in_link_ids : t -> int array

val find_link : t -> src:Node.t -> dst:Node.t -> Link.t option
(** The (first) direct link between two nodes, if adjacent. *)

val reverse : t -> Link.t -> Link.t

val degree : t -> Node.t -> int

val iter_links : t -> (Link.t -> unit) -> unit

val fold_links : t -> init:'a -> f:('a -> Link.t -> 'a) -> 'a

val iter_nodes : t -> (Node.t -> unit) -> unit

val is_connected : t -> bool
(** True when every node can reach every other node over the links. *)

val average_degree : t -> float

val pp_summary : Format.formatter -> t -> unit
(** One-line description: node/link counts, degree, line-type mix. *)

(** {2 Construction} — used by {!Builder}; not intended for direct use. *)

val make :
  names:string array ->
  links:Link.t array ->
  t
(** @raise Invalid_argument if link endpoints or reverse pointers are
    inconsistent, or if reverse pointers do not pair the links up
    ([reverse (reverse l) = l] for every link). *)
