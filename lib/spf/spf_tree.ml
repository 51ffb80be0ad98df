open! Import

type t = {
  graph : Graph.t;
  root : Node.t;
  parent : Link.id option array;
  dist : int array;
  hops : int array;
}

let make ~graph ~root ~parent ~dist ~hops =
  { graph; root; parent; dist; hops }

let graph t = t.graph

let root t = t.root

let reached t n = t.dist.(Node.to_int n) <> max_int

let dist t n = t.dist.(Node.to_int n)

let hops t n = t.hops.(Node.to_int n)

let parent_link t n =
  Option.map (Graph.link t.graph) t.parent.(Node.to_int n)

(* Raw int-indexed accessors for hot loops: no option or Node.t boxing. *)

let reached_i t i = t.dist.(i) <> max_int

let hops_i t i = t.hops.(i)

let parent_id t i =
  match t.parent.(i) with None -> -1 | Some lid -> Link.id_to_int lid

(* First hop of node [v], memoized in [col] ([unknown] = not yet
   resolved).  Recursion depth is bounded by the tree's depth, and
   nothing here allocates. *)
let unknown = -2

let rec first_hop t col root v =
  let h = col.(v) in
  if h <> unknown then h
  else begin
    let h =
      if t.dist.(v) = max_int then -1
      else
        match t.parent.(v) with
        | None -> -1
        | Some lid ->
          let u = Node.to_int (Graph.link t.graph lid).Link.src in
          if u = root then Link.id_to_int lid else first_hop t col root u
    in
    col.(v) <- h;
    h
  end

let next_hops_into t col =
  let n = Array.length t.dist in
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

let unsafe_dist t = t.dist

let unsafe_hops t = t.hops

let path t dst =
  if not (reached t dst) then invalid_arg "Spf_tree.path: unreachable";
  let rec climb n acc =
    match t.parent.(Node.to_int n) with
    | None -> acc
    | Some lid ->
      let l = Graph.link t.graph lid in
      climb l.Link.src (l :: acc)
  in
  climb dst []

let next_hop t dst =
  if Node.equal dst t.root || not (reached t dst) then None
  else begin
    let rec climb n =
      match t.parent.(Node.to_int n) with
      | None -> None
      | Some lid ->
        let l = Graph.link t.graph lid in
        if Node.equal l.Link.src t.root then Some l else climb l.Link.src
    in
    climb dst
  end

let uses_link t dst lid =
  reached t dst
  &&
  let rec climb n =
    match t.parent.(Node.to_int n) with
    | None -> false
    | Some plid ->
      Link.id_equal plid lid
      || climb (Graph.link t.graph plid).Link.src
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
  Node.equal a.root b.root
  && a.dist = b.dist && a.hops = b.hops
  && Array.length a.parent = Array.length b.parent
  && begin
       let ok = ref true in
       Array.iteri
         (fun i p ->
           match (p, b.parent.(i)) with
           | None, None -> ()
           | Some x, Some y when Link.id_equal x y -> ()
           | _ -> ok := false)
         a.parent;
       !ok
     end

let equal_dists a b =
  Array.length a.dist = Array.length b.dist
  && Node.equal a.root b.root
  &&
  let ok = ref true in
  Array.iteri (fun i d -> if d <> b.dist.(i) then ok := false) a.dist;
  !ok
