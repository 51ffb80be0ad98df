open! Import

type options = {
  stability : bool;
  params : Params_check.file option;
}

let default_options = { stability = true; params = None }

let scenario_passes ?(options = default_options) ?file diags (t : Script.t) =
  let topology = Topology_check.check ?file t.Script.graph t.Script.traffic in
  let stability =
    if not options.stability then []
    else begin
      let entries, averaging, movement_limits =
        match options.params with
        | None -> ([], true, true)
        | Some { Params_check.entries; averaging; movement_limits } ->
          (entries, averaging, movement_limits)
      in
      Stability_check.check ?file ~averaging ~movement_limits ~entries
        t.Script.graph t.Script.traffic
    end
  in
  diags @ topology @ stability

let check_scenario_file ?options path =
  match Scenario_check.check_file path with
  | diags, None -> diags
  | diags, Some t -> scenario_passes ?options ~file:path diags t

let check_params_file path =
  match Params_check.load path with
  | Error message ->
    ([ Diagnostic.error ~file:path ~code:"P000" message ], None)
  | Ok file ->
    (Params_check.check_table ~file:path file.Params_check.entries, Some file)

let check_default_table () = Params_check.check_table Hnm_params.all
