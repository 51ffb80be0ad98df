open! Import

type t = {
  graph : Graph.t;
  root : Node.t;
  parent : int array; (* arriving link id; -1 = root or unreached *)
  comp : int array; (* composite distance; max_int = unreached *)
}

let unreached graph root =
  let n = Graph.node_count graph in
  { graph; root; parent = Array.make n (-1); comp = Array.make n max_int }

let hop_scale = 1 lsl 20

let edge_weight ~cost = (cost * hop_scale) + 1

(* The decode: unit cost above the hop field, and the hop count in the
   low 20 bits.  Inlined: load assignment decodes hops once per reached
   node per source and once per flow.  Composites are never negative, so
   the hop field is a mask, which spares that loop [mod]'s sign
   fix-up. *)
let[@inline] units_of comp =
  if comp = max_int then max_int else comp / hop_scale

let[@inline] hops_of comp =
  if comp = max_int then max_int else comp land (hop_scale - 1)

let graph t = t.graph

let root t = t.root

let reached t n = t.comp.(Node.to_int n) <> max_int

let dist t n = units_of t.comp.(Node.to_int n)

let hops t n = hops_of t.comp.(Node.to_int n)

let link t p = Graph.link t.graph (Link.id_of_int p)

let parent_link t n =
  let p = t.parent.(Node.to_int n) in
  if p < 0 then None else Some (link t p)

(* Raw int-indexed accessors for hot loops: no option or Node.t boxing. *)

let[@inline] reached_i t i = t.comp.(i) <> max_int

let[@inline] hops_i t i = hops_of t.comp.(i)

let[@inline] parent_id t i = t.parent.(i)

(* First hop of node [v], memoized in [col] ([unknown] = not yet
   resolved).  Recursion depth is bounded by the tree's depth, and
   nothing here allocates. *)
let unknown = -2

let rec first_hop t col root v =
  let h = col.(v) in
  if h <> unknown then h
  else begin
    let p = t.parent.(v) in
    let h =
      if p < 0 then -1
      else
        let u = Node.to_int (link t p).Link.src in
        if u = root then p else first_hop t col root u
    in
    col.(v) <- h;
    h
  end

let next_hops_into t col =
  let n = Array.length t.comp in
  let root = Node.to_int t.root in
  Array.fill col 0 n unknown;
  col.(root) <- -1;
  for v = 0 to n - 1 do
    ignore (first_hop t col root v)
  done
[@@hot_path]

(* Individual array accessors, not a tuple: the in-place paths fetch
   them on their steady path, where a tuple would box. *)

let unsafe_parent t = t.parent

let unsafe_composite t = t.comp

let path t dst =
  if not (reached t dst) then invalid_arg "Spf_tree.path: unreachable";
  let rec climb n acc =
    let p = t.parent.(Node.to_int n) in
    if p < 0 then acc
    else
      let l = link t p in
      climb l.Link.src (l :: acc)
  in
  climb dst []

(* The root and unreached nodes have no parent, so these climbs stop
   there without a separate reachability test. *)
let next_hop t dst =
  let rec climb n =
    let p = t.parent.(Node.to_int n) in
    if p < 0 then None
    else
      let l = link t p in
      if Node.equal l.Link.src t.root then Some l else climb l.Link.src
  in
  climb dst

let uses_link t dst lid =
  let lid = Link.id_to_int lid in
  let rec climb n =
    let p = t.parent.(Node.to_int n) in
    p >= 0 && (p = lid || climb (link t p).Link.src)
  in
  climb dst

let fold_reached t ~init ~f =
  let acc = ref init in
  Graph.iter_nodes t.graph (fun n ->
      if reached t n && not (Node.equal n t.root) then acc := f !acc n);
  !acc

let destinations_via t lid =
  fold_reached t ~init:[] ~f:(fun acc n ->
      if uses_link t n lid then n :: acc else acc)
  |> List.rev

let equal a b =
  Node.equal a.root b.root && a.comp = b.comp && a.parent = b.parent
