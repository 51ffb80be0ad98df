(* Tarjan's low-link computation over the undirected trunk structure.
   Parallel trunks between the same endpoints are distinct edges, so a
   doubled trunk is correctly not a bridge. *)

type dfs_state = {
  mutable timer : int;
  disc : int array; (* discovery time, -1 = unvisited *)
  low : int array;
  graph : Graph.t;
}

(* Undirected edges: one representative (the lower-id simplex link) per
   trunk.  DFS walks both directions but must not reuse the same physical
   trunk edge it arrived on (while allowing a parallel twin). *)
let edge_id (l : Link.t) = min (Link.id_to_int l.Link.id) (Link.id_to_int l.Link.reverse)

let dfs_low_links g =
  let n = Graph.node_count g in
  let state =
    { timer = 0; disc = Array.make n (-1); low = Array.make n max_int; graph = g }
  in
  let bridges = ref [] in
  let articulation = Array.make n false in
  let rec visit node ~via_edge ~is_root =
    let i = Node.to_int node in
    state.disc.(i) <- state.timer;
    state.low.(i) <- state.timer;
    state.timer <- state.timer + 1;
    let children = ref 0 in
    List.iter
      (fun (l : Link.t) ->
        let j = Node.to_int l.Link.dst in
        if edge_id l <> via_edge then begin
          if state.disc.(j) < 0 then begin
            incr children;
            visit l.Link.dst ~via_edge:(edge_id l) ~is_root:false;
            state.low.(i) <- min state.low.(i) state.low.(j);
            if (not is_root) && state.low.(j) >= state.disc.(i) then
              articulation.(i) <- true;
            if state.low.(j) > state.disc.(i) then
              bridges := Graph.link g (Link.id_of_int (edge_id l)) :: !bridges
          end
          else state.low.(i) <- min state.low.(i) state.disc.(j)
        end)
      (Graph.out_links g node);
    if is_root && !children > 1 then articulation.(i) <- true
  in
  Graph.iter_nodes g (fun node ->
      if state.disc.(Node.to_int node) < 0 then
        visit node ~via_edge:(-1) ~is_root:true);
  (List.rev !bridges, articulation)

let bridges g = fst (dfs_low_links g)

let articulation_points g =
  let _, articulation = dfs_low_links g in
  let points = ref [] in
  for i = Array.length articulation - 1 downto 0 do
    if articulation.(i) then points := Node.of_int i :: !points
  done;
  !points

(* One BFS per source over the CSR out-links, each row its own
   distance column; [queue] holds the row's frontier in visit order. *)
let hop_counts_into ?up g table =
  let n = Graph.node_count g in
  if Array.length table <> n * n then
    invalid_arg "Graph_analysis.hop_counts_into: table is not N x N";
  let off = Graph.csr_out_off g in
  let ids = Graph.csr_out_link_ids g in
  let dsts = Graph.csr_out_dst g in
  let queue = Array.make n 0 in
  Array.fill table 0 (n * n) (-1);
  for src = 0 to n - 1 do
    let row = src * n in
    table.(row + src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let d = table.(row + u) + 1 in
      for k = off.(u) to off.(u + 1) - 1 do
        let v = dsts.(k) in
        let usable = match up with None -> true | Some up -> up.(ids.(k)) in
        if usable && table.(row + v) < 0 then begin
          table.(row + v) <- d;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done
  done

let diameter_hops g =
  let n = Graph.node_count g in
  let table = Array.make (n * n) (-1) in
  hop_counts_into g table;
  Array.fold_left (fun worst d -> if d < 0 then max_int else max worst d) 0 table

let captive_traffic_fraction g tm =
  let cut_trunks = bridges g in
  let total = Traffic_matrix.total_bps tm in
  if total <= 0. then 0.
  else begin
    let n = Graph.node_count g in
    (* For each bridge, find the node set on the far side and sum the
       demand crossing; each pair crosses at most... a pair may cross
       several bridges, so mark pairs captive once. *)
    let captive = Hashtbl.create 64 in
    List.iter
      (fun (bridge : Link.t) ->
        let blocked lid =
          not
            (Link.id_equal lid bridge.Link.id
            || Link.id_equal lid bridge.Link.reverse)
        in
        (* Reachability from the bridge's src without the bridge. *)
        let reachable = Array.make n false in
        let queue = Queue.create () in
        reachable.(Node.to_int bridge.Link.src) <- true;
        Queue.add bridge.Link.src queue;
        while not (Queue.is_empty queue) do
          let node = Queue.pop queue in
          List.iter
            (fun (l : Link.t) ->
              if blocked l.Link.id then begin
                let j = Node.to_int l.Link.dst in
                if not reachable.(j) then begin
                  reachable.(j) <- true;
                  Queue.add l.Link.dst queue
                end
              end)
            (Graph.out_links g node)
        done;
        Traffic_matrix.iter tm (fun ~src ~dst _ ->
            if reachable.(Node.to_int src) <> reachable.(Node.to_int dst) then
              Hashtbl.replace captive (Node.to_int src, Node.to_int dst) ()))
      cut_trunks;
    let sum =
      Hashtbl.fold
        (fun (s, d) () acc ->
          acc
          +. Traffic_matrix.get tm ~src:(Node.of_int s) ~dst:(Node.of_int d))
        captive 0.
    in
    sum /. total
  end

let pp_report ppf g =
  let cut_trunks = bridges g in
  let points = articulation_points g in
  Format.fprintf ppf
    "@[<v>%a@,diameter: %d hops@,bridge trunks: %d of %d@,articulation PSNs: %s@]"
    Graph.pp_summary g (diameter_hops g) (List.length cut_trunks)
    (Graph.link_count g / 2)
    (match points with
    | [] -> "none"
    | _ -> String.concat " " (List.map (Graph.node_name g) points))
