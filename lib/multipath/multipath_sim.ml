open! Import

type period_stats = {
  time_s : float;
  offered_bps : float;
  delivered_bps : float;
  dropped_bps : float;
  mean_delay_s : float;
  updates : int;
  update_bits : float;
  max_utilization : float;
}

type t = {
  graph : Graph.t;
  metric : Metric.t;
  tm : Traffic_matrix.t;
  flood_tx : int array;
      (* per origin: transmissions of one instant flood
         ({!Broadcast.instant_transmissions}) *)
  utilization : float array;
  link_up : bool array; (* every link, always: the metric's mask *)
  link_delay : float array; (* per link: this period's M/M/1/K delay *)
  link_src : int array; (* per link: source node id *)
  chg_ids : int array; (* flooded links, grouped by origin, from the metric *)
  chg_costs : int array;
  mutable period : int;
  mutable history : period_stats list; (* newest first *)
}

let create_with graph metric tm =
  let nl = Graph.link_count graph in
  { graph;
    metric;
    tm;
    flood_tx = Broadcast.instant_transmissions graph;
    utilization = Array.make nl 0.;
    link_up = Array.make nl true;
    link_delay = Array.make nl 0.;
    link_src =
      Array.init nl (fun i ->
          Node.to_int (Graph.link graph (Link.id_of_int i)).Link.src);
    chg_ids = Array.make nl 0;
    chg_costs = Array.make nl 0;
    period = 0;
    history = [] }

let create graph kind tm = create_with graph (Metric.create kind graph) tm

let graph t = t.graph

let metric t = t.metric

let step t =
  let cost = Metric.cost_fn t.metric in
  (* Pass 1: destination-rooted ECMP DAGs and per-link offered load; keep
     the DAGs for the delay pass. *)
  let offered = Array.make (Graph.link_count t.graph) 0. in
  let rspfs = ref [] in
  let unrouted = ref 0. in
  Graph.iter_nodes t.graph (fun dst ->
      let column = ref 0. in
      Graph.iter_nodes t.graph (fun src ->
          column := !column +. Traffic_matrix.get t.tm ~src ~dst);
      if !column > 0. then begin
        let rspf = Reverse_spf.compute t.graph ~cost dst in
        Graph.iter_nodes t.graph (fun src ->
            if not (Reverse_spf.reaches rspf src) then
              unrouted := !unrouted +. Traffic_matrix.get t.tm ~src ~dst);
        ignore
          (Ecmp.spread_destination t.graph rspf
             ~demand:(fun src -> Traffic_matrix.get t.tm ~src ~dst)
             ~offered);
        rspfs := (dst, rspf) :: !rspfs
      end);
  Graph.iter_links t.graph (fun (l : Link.t) ->
      t.utilization.(Link.id_to_int l.Link.id) <-
        offered.(Link.id_to_int l.Link.id) /. Link.capacity_bps l);
  (* Pass 2: delivered-weighted expected delays and loss over the DAGs. *)
  let link_delay (l : Link.t) =
    Queueing.mm1k_delay_s l
      ~utilization:t.utilization.(Link.id_to_int l.Link.id)
  in
  let link_loss (l : Link.t) =
    Queueing.mm1k_blocking
      ~utilization:t.utilization.(Link.id_to_int l.Link.id)
  in
  let offered_total = ref 0. in
  let delivered = ref 0. in
  let delay_weighted = ref 0. in
  List.iter
    (fun (dst, rspf) ->
      Graph.iter_nodes t.graph (fun src ->
          let demand = Traffic_matrix.get t.tm ~src ~dst in
          if demand > 0. then begin
            offered_total := !offered_total +. demand;
            match
              Ecmp.expectation ~link_loss rspf ~link_delay_s:link_delay src
            with
            | None -> ()
            | Some e ->
              let carried = demand *. e.Ecmp.delivery_fraction in
              delivered := !delivered +. carried;
              delay_weighted :=
                !delay_weighted +. (e.Ecmp.expected_delay_s *. carried)
          end))
    !rspfs;
  offered_total := !offered_total +. !unrouted;
  (* Metric pass: the batch call every simulator makes, with every link
     up; each origin run of the flooded links is one update. *)
  Graph.iter_links t.graph (fun (l : Link.t) ->
      t.link_delay.(Link.id_to_int l.Link.id) <- link_delay l);
  let nch =
    Metric.period_update_all t.metric ~up:t.link_up ~link_delay_s:t.link_delay
      ~changed_ids:t.chg_ids ~changed_costs:t.chg_costs
  in
  let updates =
    Update.runs ~link_src:t.link_src ~changed_ids:t.chg_ids ~count:nch
  in
  let update_bits =
    Broadcast.instant_bits t.flood_tx ~link_src:t.link_src
      ~changed_ids:t.chg_ids ~count:nch
  in
  t.period <- t.period + 1;
  let stats =
    { time_s = float_of_int t.period *. Units.routing_period_s;
      offered_bps = !offered_total;
      delivered_bps = !delivered;
      dropped_bps = !offered_total -. !delivered;
      mean_delay_s =
        (if !delivered > 0. then !delay_weighted /. !delivered else 0.);
      updates;
      update_bits = float_of_int update_bits;
      max_utilization = Array.fold_left Float.max 0. t.utilization }
  in
  t.history <- stats :: t.history;
  stats

let run t ~periods = List.init periods (fun _ -> step t)

let link_utilization t lid = t.utilization.(Link.id_to_int lid)

let link_cost t lid = Metric.cost t.metric lid

let history t = List.rev t.history

let mean_delivered_bps t ~skip =
  let kept = List.filteri (fun i _ -> i >= skip) (history t) in
  match kept with
  | [] -> 0.
  | _ ->
    List.fold_left (fun acc s -> acc +. s.delivered_bps) 0. kept
    /. float_of_int (List.length kept)
