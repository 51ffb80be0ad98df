open! Import

type t = {
  graph : Graph.t;
  destination : Node.t;
  dist : int array; (* to destination, per node *)
  hops : (Link.t list) array; (* equal-cost next-hop sets *)
}

let compute ?(enabled = fun _ -> true) g ~cost dst =
  let n = Graph.node_count g in
  let dist = Array.make n max_int in
  let settled = Array.make n false in
  let queue = Radix_queue.create () in
  dist.(Node.to_int dst) <- 0;
  Radix_queue.push queue ~key:0 ~tie:0 (Node.to_int dst);
  let rec run () =
    match Radix_queue.pop_min queue with
    | None -> ()
    | Some (d, _, i) ->
      if not settled.(i) then begin
        settled.(i) <- true;
        (* Relax the *incoming* links: a shorter way for their tails. *)
        List.iter
          (fun (l : Link.t) ->
            if enabled l.Link.id then begin
              let j = Node.to_int l.Link.src in
              let d' = d + cost l.Link.id in
              if d' < dist.(j) then begin
                dist.(j) <- d';
                Radix_queue.push queue ~key:d' ~tie:j j
              end
            end)
          (Graph.in_links g (Node.of_int i))
      end;
      run ()
  in
  run ();
  let hops =
    Array.init n (fun i ->
        if i = Node.to_int dst || dist.(i) = max_int then []
        else
          List.filter
            (fun (l : Link.t) ->
              enabled l.Link.id
              && dist.(Node.to_int l.Link.dst) <> max_int
              && cost l.Link.id + dist.(Node.to_int l.Link.dst) = dist.(i))
            (Graph.out_links g (Node.of_int i)))
  in
  { graph = g; destination = dst; dist; hops }

let destination t = t.destination

let dist_to t node = t.dist.(Node.to_int node)

let reaches t node = t.dist.(Node.to_int node) <> max_int

let next_hops t node = t.hops.(Node.to_int node)

let nodes_by_descending_distance t =
  Graph.nodes t.graph
  |> List.filter (reaches t)
  |> List.sort (fun a b -> Int.compare (dist_to t b) (dist_to t a))
