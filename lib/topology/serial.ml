let to_string g tm =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "# trunks: src dst line-type propagation-seconds\n";
  Graph.iter_links g (fun (l : Link.t) ->
      (* Each physical trunk appears as two simplex links; dump the one
         with the lower id so the file has one line per trunk. *)
      if Link.id_compare l.Link.id l.Link.reverse < 0 then
        Buffer.add_string buffer
          (Printf.sprintf "trunk %s %s %s %.6f\n"
             (Graph.node_name g l.Link.src)
             (Graph.node_name g l.Link.dst)
             (Line_type.name l.Link.line_type)
             l.Link.propagation_s));
  (match tm with
  | None -> ()
  | Some tm ->
    Buffer.add_string buffer "# demands: src dst bits-per-second\n";
    Traffic_matrix.iter tm (fun ~src ~dst bps ->
        Buffer.add_string buffer
          (Printf.sprintf "demand %s %s %.3f\n" (Graph.node_name g src)
             (Graph.node_name g dst) bps)));
  Buffer.contents buffer

type parsed_line =
  | Blank
  | Trunk of string * string * Line_type.t * float option
  | Demand of string * string * float

let parse_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let fields =
    String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
    |> List.filter (fun s -> String.length s > 0)
  in
  match fields with
  | [] -> Ok Blank
  | "trunk" :: a :: b :: lt :: rest -> (
    match Line_type.of_name lt with
    | None -> Error (Printf.sprintf "unknown line type %S" lt)
    | Some lt -> (
      match rest with
      | [] -> Ok (Trunk (a, b, lt, None))
      | [ p ] -> (
        match float_of_string_opt p with
        | Some p when Float.is_finite p && p >= 0. ->
          Ok (Trunk (a, b, lt, Some p))
        | _ -> Error (Printf.sprintf "bad propagation %S" p))
      | _ -> Error "too many fields on trunk line"))
  | [ "demand"; a; b; bps ] -> (
    match float_of_string_opt bps with
    | Some bps when Float.is_finite bps && bps >= 0. -> Ok (Demand (a, b, bps))
    | _ -> Error (Printf.sprintf "bad demand %S" bps))
  | keyword :: _ -> Error (Printf.sprintf "unrecognized directive %S" keyword)

(* Single parsing core: walk every line, accumulating located errors
   rather than stopping at the first, so the static checker can report
   them all.  [of_string] keeps its historical first-error contract on
   top of this. *)
let lint text =
  let builder = Builder.create () in
  let demands = ref [] in
  let errors = ref [] in
  let fail line message = errors := (line, message) :: !errors in
  List.iteri
    (fun index line ->
      match parse_line line with
      | Ok Blank -> ()
      | Ok (Trunk (a, b, lt, prop)) ->
        if String.equal a b then fail (index + 1) "self-loop trunk"
        else ignore (Builder.trunk builder ?propagation_s:prop lt a b)
      | Ok (Demand (a, b, bps)) -> demands := (index + 1, a, b, bps) :: !demands
      | Error message -> fail (index + 1) message)
    (String.split_on_char '\n' text);
  let g = Builder.build builder in
  let tm = Traffic_matrix.create ~nodes:(Graph.node_count g) in
  List.iter
    (fun (line, a, b, bps) ->
      match (Graph.node_by_name g a, Graph.node_by_name g b) with
      | Some src, Some dst -> Traffic_matrix.add tm ~src ~dst bps
      | None, _ -> fail line (Printf.sprintf "unknown node %S" a)
      | _, None -> fail line (Printf.sprintf "unknown node %S" b))
    (List.rev !demands);
  (List.rev !errors, (g, tm))

let of_string text =
  match lint text with
  | [], result -> Ok result
  | (line, message) :: _, _ ->
    Error (Printf.sprintf "line %d: %s" line message)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error message -> Error message

let save path g tm =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string g tm))
