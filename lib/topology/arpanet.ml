module Rng = Routing_stats.Rng

(* Trunk list for the synthesized network.  Grouping follows geography:
   New England, New York corridor, Washington DC area, Southeast, the
   mountain/southwest states, California, and the overseas tails.  Line
   types: mostly 56 kb/s terrestrial; 9.6 kb/s tail circuits; satellite
   links to Hawaii/Norway and one domestic satellite trunk (ARPA-AMES). *)
let trunks : (string * string * Line_type.t * float option) list =
  let t56 = Line_type.T56 and t96 = Line_type.T9_6 in
  let s56 = Line_type.S56 and s96 = Line_type.S9_6 in
  [
    (* New England *)
    ("MIT", "BBN", t56, Some 0.002);
    ("MIT", "HARV", t56, Some 0.001);
    ("HARV", "BBN", t56, Some 0.001);
    ("BBN", "BBN2", t56, Some 0.001);
    ("BBN2", "CCA", t56, Some 0.001);
    ("CCA", "MIT2", t56, Some 0.001);
    ("MIT2", "MIT", t56, Some 0.001);
    ("LINC", "MIT", t96, Some 0.001);
    ("LINC", "DEC", t96, Some 0.002);
    ("DEC", "BBN2", t56, Some 0.002);
    (* New York / mid-Atlantic corridor *)
    ("CCA", "NYU", t56, Some 0.004);
    ("NYU", "COLUMBIA", t56, Some 0.001);
    ("NYU", "RUTGERS", t56, Some 0.001);
    ("COLUMBIA", "CORNELL", t56, Some 0.004);
    ("CORNELL", "DEC", t56, Some 0.006);
    ("CORNELL", "CMU", t56, Some 0.005);
    ("CMU", "PITT", t96, Some 0.001);
    ("PITT", "ABERDEEN", t96, Some 0.004);
    (* Washington DC area *)
    ("RUTGERS", "UMD", t56, Some 0.003);
    ("UMD", "NBS", t56, Some 0.001);
    ("NBS", "ARPA", t56, Some 0.001);
    ("ARPA", "MITRE", t56, Some 0.001);
    ("MITRE", "PENTAGON", t56, Some 0.001);
    ("PENTAGON", "DCEC", t56, Some 0.001);
    ("DCEC", "ARPA", t56, Some 0.001);
    ("NRL", "PENTAGON", t96, Some 0.001);
    ("NSA", "NBS", t56, Some 0.001);
    ("NSA", "ABERDEEN", t56, Some 0.002);
    ("ABERDEEN", "UMD", t56, Some 0.002);
    ("SDAC", "MITRE", t56, Some 0.001);
    (* Overseas tails *)
    ("SDAC", "NORSAR", s96, None);
    ("NORSAR", "LONDON", t96, Some 0.055);
    (* Southeast *)
    ("PENTAGON", "BRAGG", t56, Some 0.004);
    ("BRAGG", "ROBINS", t56, Some 0.005);
    ("ROBINS", "GUNTER", t96, Some 0.002);
    ("GUNTER", "EGLIN", t56, Some 0.002);
    ("EGLIN", "TEXAS", t56, Some 0.009);
    ("TEXAS", "RICE", t56, Some 0.002);
    ("TEXAS", "TINKER", t56, Some 0.005);
    (* Mountain / southwest *)
    ("TINKER", "WSMR", t56, Some 0.007);
    ("WSMR", "SANDIA", t56, Some 0.003);
    ("SANDIA", "AFWL", t96, Some 0.001);
    ("SANDIA", "LANL", t96, Some 0.002);
    ("LANL", "DENVER", t56, Some 0.005);
    ("DENVER", "UTAH", t56, Some 0.006);
    ("UTAH", "BYU", t96, Some 0.001);
    (* Cross-country trunks *)
    ("CMU", "UTAH", t56, Some 0.028);
    ("DENVER", "AMES", t56, Some 0.017);
    ("RICE", "UCLA", t56, Some 0.023);
    ("UTAH", "SRI", t56, Some 0.012);
    ("ARPA", "AMES", s56, None);
    (* Los Angeles basin *)
    ("UCLA", "RAND", t56, Some 0.001);
    ("RAND", "SDC", t96, Some 0.001);
    ("SDC", "USC", t56, Some 0.001);
    ("USC", "ISI", t56, Some 0.001);
    ("ISI", "ISI2", t56, Some 0.001);
    ("ISI2", "UCLA", t56, Some 0.001);
    ("ISI", "UCLA", t56, Some 0.001);
    (* Bay Area *)
    ("SRI", "STANFORD", t56, Some 0.001);
    ("STANFORD", "SUMEX", t96, Some 0.001);
    ("STANFORD", "XEROX", t56, Some 0.001);
    ("STANFORD", "BERKELEY", t56, Some 0.002);
    ("BERKELEY", "LBL", t56, Some 0.001);
    ("LBL", "SRI", t56, Some 0.002);
    ("SRI", "SRI2", t56, Some 0.001);
    ("SRI2", "AMES2", t56, Some 0.002);
    ("AMES2", "AMES", t56, Some 0.001);
    ("AMES", "MOFFETT", t96, Some 0.001);
    (* LA <-> Bay Area *)
    ("UCLA", "STANFORD", t56, Some 0.015);
    ("ISI", "AMES", t56, Some 0.015);
    ("USC", "SUMEX", t56, Some 0.015);
    (* Pacific *)
    ("AMES", "HAWAII", s56, None);
  ]

let cross_country =
  [ ("CMU", "UTAH"); ("DENVER", "AMES"); ("RICE", "UCLA"); ("UTAH", "SRI");
    ("ARPA", "AMES") ]

let topology () =
  let b = Builder.create () in
  List.iter
    (fun (a, z, lt, prop) ->
      match prop with
      | Some propagation_s -> ignore (Builder.trunk b ~propagation_s lt a z)
      | None -> ignore (Builder.trunk b lt a z))
    trunks;
  let g = Builder.build b in
  assert (Graph.is_connected g);
  g

let representative_link g =
  match (Graph.node_by_name g "MIT", Graph.node_by_name g "BBN") with
  | Some mit, Some bbn -> (
    match Graph.find_link g ~src:mit ~dst:bbn with
    | Some l -> l
    | None -> invalid_arg "Arpanet.representative_link")
  | _ -> invalid_arg "Arpanet.representative_link"

let bridge_links g =
  List.concat_map
    (fun (a, z) ->
      match (Graph.node_by_name g a, Graph.node_by_name g z) with
      | Some na, Some nz -> (
        match Graph.find_link g ~src:na ~dst:nz with
        | Some l -> [ l; Graph.reverse g l ]
        | None -> [])
      | _ -> [])
    cross_country

(* Scale rows/columns down until no node offers (or sinks) more than
   [frac] of its attached line capacity — a gravity matrix knows nothing
   about 9.6 kb/s tail circuits and would otherwise oversubscribe them
   physically.  Each pass reads one row and one column sum per node, so
   the fit is O(passes * N^2). *)
let fit_to_access_capacity g tm ~frac =
  let cap_out = Array.make (Graph.node_count g) 0. in
  let cap_in = Array.make (Graph.node_count g) 0. in
  Graph.iter_links g (fun (l : Link.t) ->
      let c = Link.capacity_bps l in
      cap_out.(Node.to_int l.Link.src) <- cap_out.(Node.to_int l.Link.src) +. c;
      cap_in.(Node.to_int l.Link.dst) <- cap_in.(Node.to_int l.Link.dst) +. c);
  for _pass = 1 to 8 do
    Graph.iter_nodes g (fun node ->
        let offered = Traffic_matrix.offered_from tm node in
        let limit = frac *. cap_out.(Node.to_int node) in
        if offered > limit then begin
          let k = limit /. offered in
          Graph.iter_nodes g (fun dst ->
              Traffic_matrix.set tm ~src:node ~dst
                (k *. Traffic_matrix.get tm ~src:node ~dst))
        end);
    Graph.iter_nodes g (fun node ->
        let sunk = Traffic_matrix.offered_to tm node in
        let limit = frac *. cap_in.(Node.to_int node) in
        if sunk > limit then begin
          let k = limit /. sunk in
          Graph.iter_nodes g (fun src ->
              Traffic_matrix.set tm ~src ~dst:node
                (k *. Traffic_matrix.get tm ~src ~dst:node))
        end)
  done

let peak_traffic rng g =
  let n = Graph.node_count g in
  let base = Traffic_matrix.gravity rng ~nodes:n ~total_bps:400_000. in
  fit_to_access_capacity g base ~frac:0.30;
  let heavy a z bps =
    match (Graph.node_by_name g a, Graph.node_by_name g z) with
    | Some src, Some dst ->
      Traffic_matrix.add base ~src ~dst bps;
      Traffic_matrix.add base ~src:dst ~dst:src bps
    | _ -> ()
  in
  (* Coast-to-coast flows that load the five cross-country trunks; the
     totals bring the matrix to ~366 kb/s, Table 1's May-87 figure. *)
  heavy "MIT" "ISI" 6_000.;
  heavy "BBN" "SRI" 5_000.;
  heavy "ARPA" "ISI" 5_000.;
  heavy "CMU" "STANFORD" 4_000.;
  heavy "UTAH" "MIT" 3_000.;
  base
