open! Import

type t = { owner : Node.t; graph : Graph.t; hops : Link.id option array }

let of_tree tree =
  let g = Spf_tree.graph tree in
  let n = Graph.node_count g in
  let hops = Array.make n None in
  Graph.iter_nodes g (fun dst ->
      match Spf_tree.next_hop tree dst with
      | Some l -> hops.(Node.to_int dst) <- Some l.Link.id
      | None -> ());
  { owner = Spf_tree.root tree; graph = g; hops }

let owner t = t.owner

let next_hop t dst = Option.map (Graph.link t.graph) t.hops.(Node.to_int dst)

let reachable_count t =
  Array.fold_left (fun acc h -> if Option.is_some h then acc + 1 else acc) 0 t.hops

type trace =
  | Arrived of Link.t list
  | Loop of Node.t list
  | Black_hole of Node.t

let trace_route tables ~src ~dst =
  let n = Array.length tables in
  let visited = Array.make n false in
  let rec step node acc =
    if Node.equal node dst then Arrived (List.rev acc)
    else if visited.(Node.to_int node) then
      Loop (List.rev_map (fun (l : Link.t) -> l.Link.src) acc)
    else begin
      visited.(Node.to_int node) <- true;
      match next_hop tables.(Node.to_int node) dst with
      | None -> Black_hole node
      | Some l -> step l.Link.dst (l :: acc)
    end
  in
  step src []

let pp_trace g ppf = function
  | Arrived links ->
    let names =
      match links with
      | [] -> []
      | first :: _ ->
        Graph.node_name g first.Link.src
        :: List.map (fun (l : Link.t) -> Graph.node_name g l.Link.dst) links
    in
    Format.fprintf ppf "arrived via %s" (String.concat " -> " names)
  | Loop nodes ->
    Format.fprintf ppf "LOOP through %s"
      (String.concat " -> " (List.map (Graph.node_name g) nodes))
  | Black_hole node ->
    Format.fprintf ppf "BLACK HOLE at %s" (Graph.node_name g node)
