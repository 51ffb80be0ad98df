type t = {
  names : string array;
  link_array : Link.t array;
  out_by_node : Link.t list array; (* in link-id order *)
  in_by_node : Link.t list array;
  (* CSR-style flat adjacency: link ids grouped by endpoint, mirroring the
     lists above exactly (same grouping, same ascending-id order) but laid
     out in three flat int arrays so the SPF inner loop touches no list
     cells or boxed links. *)
  out_off : int array; (* node_count + 1 offsets into out_link_ids *)
  out_link_ids : int array; (* link ids, grouped by src *)
  out_dst : int array; (* parallel to out_link_ids: destination node ints *)
  in_off : int array;
  in_link_ids : int array; (* link ids, grouped by dst *)
}

let node_count t = Array.length t.names

let link_count t = Array.length t.link_array

let nodes t = List.init (node_count t) Node.of_int

let links t = Array.to_list t.link_array

let node_name t n = t.names.(Node.to_int n)

let node_by_name t name =
  let rec scan i =
    if i >= Array.length t.names then None
    else if String.equal t.names.(i) name then Some (Node.of_int i)
    else scan (i + 1)
  in
  scan 0

let link t id =
  let i = Link.id_to_int id in
  if i < 0 || i >= link_count t then invalid_arg "Graph.link: unknown id";
  t.link_array.(i)

let out_links t n = t.out_by_node.(Node.to_int n)

let in_links t n = t.in_by_node.(Node.to_int n)

let csr_out t = (t.out_off, t.out_link_ids, t.out_dst)

let csr_in t = (t.in_off, t.in_link_ids)

(* Individual CSR components: the tuple returns above allocate, which the
   repair path fetching them every call cannot afford. *)

let csr_out_off t = t.out_off

let csr_out_link_ids t = t.out_link_ids

let csr_out_dst t = t.out_dst

let csr_in_off t = t.in_off

let csr_in_link_ids t = t.in_link_ids

let find_link t ~src ~dst =
  List.find_opt (fun (l : Link.t) -> Node.equal l.dst dst) (out_links t src)

let reverse t (l : Link.t) = link t l.reverse

let degree t n = List.length (out_links t n)

let iter_links t f = Array.iter f t.link_array

let fold_links t ~init ~f = Array.fold_left f init t.link_array

let iter_nodes t f =
  for i = 0 to node_count t - 1 do
    f (Node.of_int i)
  done

let is_connected t =
  let n = node_count t in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let rec visit stack count =
      match stack with
      | [] -> count
      | node :: rest ->
        let next, count =
          List.fold_left
            (fun (stack, count) (l : Link.t) ->
              let d = Node.to_int l.dst in
              if seen.(d) then (stack, count)
              else begin
                seen.(d) <- true;
                (l.dst :: stack, count + 1)
              end)
            (rest, count) (out_links t node)
        in
        visit next count
    in
    seen.(0) <- true;
    visit [ Node.of_int 0 ] 1 = n
  end

let average_degree t =
  if node_count t = 0 then 0.
  else float_of_int (link_count t) /. float_of_int (node_count t)

let pp_summary ppf t =
  let mix = Hashtbl.create 8 in
  iter_links t (fun l ->
      let k = l.Link.line_type in
      Hashtbl.replace mix k (1 + Option.value ~default:0 (Hashtbl.find_opt mix k)));
  let mix_s =
    Line_type.all
    |> List.filter_map (fun lt ->
           match Hashtbl.find_opt mix lt with
           | Some n -> Some (Printf.sprintf "%s:%d" (Line_type.name lt) (n / 2))
           | None -> None)
    |> String.concat " "
  in
  Format.fprintf ppf "%d nodes, %d trunks (avg degree %.2f) [%s]" (node_count t)
    (link_count t / 2) (average_degree t) mix_s

let make ~names ~links =
  let n = Array.length names in
  Array.iteri
    (fun i (l : Link.t) ->
      if Link.id_to_int l.id <> i then
        invalid_arg "Graph.make: link ids must be dense and in order";
      if Node.to_int l.src >= n || Node.to_int l.dst >= n then
        invalid_arg "Graph.make: link endpoint out of range";
      if Node.equal l.src l.dst then invalid_arg "Graph.make: self-loop";
      let r = Link.id_to_int l.reverse in
      if r < 0 || r >= Array.length links then
        invalid_arg "Graph.make: dangling reverse pointer";
      let rl = links.(r) in
      if
        (not (Node.equal rl.Link.src l.dst))
        || not (Node.equal rl.Link.dst l.src)
      then invalid_arg "Graph.make: reverse link endpoints inconsistent";
      if Link.id_to_int rl.Link.reverse <> i then
        invalid_arg "Graph.make: reverse pointers must pair links up")
    links;
  let out_by_node = Array.make n [] in
  let in_by_node = Array.make n [] in
  (* Fold right so the per-node lists come out in ascending link-id order. *)
  for i = Array.length links - 1 downto 0 do
    let l = links.(i) in
    let s = Node.to_int l.Link.src and d = Node.to_int l.Link.dst in
    out_by_node.(s) <- l :: out_by_node.(s);
    in_by_node.(d) <- l :: in_by_node.(d)
  done;
  (* CSR construction: bucket counts, prefix sums, then a forward fill so
     each bucket holds its link ids in ascending order — the same order the
     lists present. *)
  let nl = Array.length links in
  let out_off = Array.make (n + 1) 0 in
  let in_off = Array.make (n + 1) 0 in
  Array.iter
    (fun (l : Link.t) ->
      out_off.(Node.to_int l.Link.src + 1) <-
        out_off.(Node.to_int l.Link.src + 1) + 1;
      in_off.(Node.to_int l.Link.dst + 1) <-
        in_off.(Node.to_int l.Link.dst + 1) + 1)
    links;
  for i = 1 to n do
    out_off.(i) <- out_off.(i) + out_off.(i - 1);
    in_off.(i) <- in_off.(i) + in_off.(i - 1)
  done;
  let out_link_ids = Array.make nl 0 in
  let out_dst = Array.make nl 0 in
  let in_link_ids = Array.make nl 0 in
  let out_cursor = Array.sub out_off 0 n in
  let in_cursor = Array.sub in_off 0 n in
  for i = 0 to nl - 1 do
    let l = links.(i) in
    let s = Node.to_int l.Link.src and d = Node.to_int l.Link.dst in
    out_link_ids.(out_cursor.(s)) <- i;
    out_dst.(out_cursor.(s)) <- d;
    out_cursor.(s) <- out_cursor.(s) + 1;
    in_link_ids.(in_cursor.(d)) <- i;
    in_cursor.(d) <- in_cursor.(d) + 1
  done;
  { names;
    link_array = links;
    out_by_node;
    in_by_node;
    out_off;
    out_link_ids;
    out_dst;
    in_off;
    in_link_ids }
