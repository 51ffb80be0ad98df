open! Import

(* Abbreviate "A B C D E ..." lists so a big topology's audit stays one
   line per finding. *)
let name_list names =
  let shown, rest =
    if List.length names <= 8 then (names, 0)
    else (List.filteri (fun i _ -> i < 8) names, List.length names - 8)
  in
  String.concat " " shown
  ^ if rest > 0 then Printf.sprintf " (+%d more)" rest else ""

let check ?file g tm =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if Graph.link_count g = 0 then
    add (Diagnostic.error ?file ~code:"T001" "empty topology: no trunks")
  else begin
    if not (Graph.is_connected g) then
      add
        (Diagnostic.error ?file ~code:"T002"
           "topology is disconnected: some PSN pairs have no path at all");
    (* Single points of failure (§5.2's alternate-path richness). *)
    let bridges = Graph_analysis.bridges g in
    if bridges <> [] then begin
      let captive = Graph_analysis.captive_traffic_fraction g tm in
      add
        (Diagnostic.info ?file ~code:"T010"
           (Printf.sprintf
              "%d of %d trunks are bridges (failure partitions the net): \
               %s; %.1f%% of offered traffic is captive to one"
              (List.length bridges)
              (Graph.link_count g / 2)
              (name_list
                 (List.map
                    (fun (l : Link.t) ->
                      Printf.sprintf "%s-%s"
                        (Graph.node_name g l.Link.src)
                        (Graph.node_name g l.Link.dst))
                    bridges))
              (100. *. captive)))
    end;
    let articulation = Graph_analysis.articulation_points g in
    if articulation <> [] then
      add
        (Diagnostic.info ?file ~code:"T011"
           (Printf.sprintf "%d articulation PSN(s) whose failure partitions \
                            the net: %s"
              (List.length articulation)
              (name_list (List.map (Graph.node_name g) articulation))));
    let stubs =
      List.filter (fun n -> Graph.degree g n = 1) (Graph.nodes g)
    in
    if stubs <> [] then
      add
        (Diagnostic.info ?file ~code:"T012"
           (Printf.sprintf "%d stub PSN(s) on a single trunk: %s"
              (List.length stubs)
              (name_list (List.map (Graph.node_name g) stubs))));
    (* Demand a PSN physically cannot source or sink. *)
    Graph.iter_nodes g (fun node ->
        let capacity =
          List.fold_left
            (fun acc l -> acc +. Link.capacity_bps l)
            0. (Graph.out_links g node)
        in
        let report direction demand =
          if capacity > 0. && demand > capacity then
            add
              (Diagnostic.info ?file ~code:"T013"
                 (Printf.sprintf
                    "PSN %s %s %.0f bit/s but its trunks total %.0f bit/s \
                     — overload no routing metric can shed"
                    (Graph.node_name g node) direction demand capacity))
        in
        report "sources" (Traffic_matrix.offered_from tm node);
        report "sinks" (Traffic_matrix.offered_to tm node))
  end;
  List.rev !diags
