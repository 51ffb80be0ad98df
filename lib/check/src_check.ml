open! Import

(* --- Minimal s-expression reader, enough for dune files --- *)

type sexp = Atom of string | List of sexp list

let tokenize text =
  let tokens = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := `Atom (Buffer.contents buf) :: !tokens;
      Buffer.clear buf
    end
  in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    (match text.[!i] with
    | '(' -> flush (); tokens := `Open :: !tokens
    | ')' -> flush (); tokens := `Close :: !tokens
    | ';' ->
      (* comment to end of line *)
      flush ();
      while !i < n && text.[!i] <> '\n' do incr i done
    | ' ' | '\t' | '\n' | '\r' -> flush ()
    | c -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !tokens

let parse_sexps text =
  let rec parse_list acc = function
    | [] -> (List.rev acc, [])
    | `Close :: rest -> (List.rev acc, rest)
    | `Open :: rest ->
      let items, rest = parse_list [] rest in
      parse_list (List items :: acc) rest
    | `Atom a :: rest -> parse_list (Atom a :: acc) rest
  in
  fst (parse_list [] (tokenize text))

let field name = function
  | List (Atom head :: rest) when String.equal head name -> Some rest
  | _ -> None

(* --- The routing_spf dependency closure, from the dune files --- *)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Some text
  | exception Sys_error _ -> None

let library_stanzas root =
  Sys.readdir root |> Array.to_list |> List.sort String.compare
  |> List.filter_map (fun dir ->
         let dune = Filename.concat (Filename.concat root dir) "dune" in
         if Sys.file_exists dune then
           Option.map (fun text -> (dir, parse_sexps text)) (read_file dune)
         else None)
  |> List.concat_map (fun (dir, sexps) ->
         List.filter_map
           (fun sexp ->
             match field "library" sexp with
             | None -> None
             | Some fields ->
               let name =
                 List.find_map
                   (fun f ->
                     match field "name" f with
                     | Some [ Atom n ] -> Some n
                     | _ -> None)
                   fields
               in
               let deps =
                 List.concat_map
                   (fun f ->
                     match field "libraries" f with
                     | Some atoms ->
                       List.filter_map
                         (function Atom a -> Some a | List _ -> None)
                         atoms
                     | None -> [])
                   fields
               in
               Option.map (fun name -> (name, dir, deps)) name)
           sexps)

let spf_reachable ~root =
  let stanzas = library_stanzas root in
  let rec closure seen = function
    | [] -> seen
    | name :: queue ->
      if List.mem_assoc name seen then closure seen queue
      else begin
        match
          List.find_opt (fun (n, _, _) -> String.equal n name) stanzas
        with
        | None -> closure seen queue (* external library *)
        | Some (_, dir, deps) -> closure ((name, dir) :: seen) (deps @ queue)
      end
  in
  closure [] [ "routing_spf" ] |> List.map snd |> List.sort_uniq String.compare

(* --- The parse-tree scans --- *)

let rec ident_name = function
  | Longident.Lident s -> s
  | Longident.Ldot (m, s) -> ident_name m ^ "." ^ s
  | Longident.Lapply (f, x) -> ident_name f ^ "(" ^ ident_name x ^ ")"

let mutable_constructors =
  [ "ref"; "Hashtbl.create"; "Queue.create"; "Buffer.create"; "Atomic.make" ]

(* The constructor, when a toplevel binding's initializer is an
   application of one of [mutable_constructors].  A binding of a
   function is a [fun], not an application: its body runs per call, so
   the state it builds is fresh, not a shared cell. *)
let rec mutable_init (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> mutable_init e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let name = ident_name txt in
    if List.mem name mutable_constructors then Some name else None
  | _ -> None

(* The one pluggable-clock module: {!Tracer.now} reads the [Wall] clock
   the flight recorder and the stage profiles share. *)
let clock_file path =
  Filename.basename (Filename.dirname path) = "obs"
  && Filename.basename path = "tracer.ml"

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* A file the parser rejects: one diagnostic at the parser's location. *)
let parse_failure path exn =
  let line, detail =
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      ( line_of report.Location.main.loc,
        Format.asprintf "%t" report.Location.main.txt )
    | Some `Already_displayed | None -> (1, Printexc.to_string exn)
  in
  Diagnostic.error ~file:path ~line ~code:"L000"
    (Printf.sprintf "does not parse (%s), so the L0xx rules cannot check it"
       detail)

let scan_structure ~in_spf_closure path structure =
  let diags = ref [] in
  let add loc code message = diags := (line_of loc, code, message) :: !diags in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
      match ident_name txt with
      | "Random.self_init" ->
        add loc "L001"
          "Random.self_init: seeds must be explicit (Routing_stats.Rng) or \
           parallel runs stop being reproducible"
      | ("Unix.gettimeofday" | "Sys.time") when not (clock_file path) ->
        add loc "L002"
          "wall-clock read outside lib/obs/tracer.ml: route timing \
           through the pluggable Tracer clock so runs stay deterministic"
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure;
  if in_spf_closure then
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              Option.iter
                (fun name ->
                  add vb.pvb_loc "L003"
                    (Printf.sprintf
                       "top-level mutable state (%s) in a module reachable \
                        from Spf_engine — domains may race on it"
                       name))
                (mutable_init vb.pvb_expr))
            bindings
        | _ -> ())
      structure;
  List.stable_sort
    (fun (l1, c1, _) (l2, c2, _) -> compare (l1, c1) (l2, c2))
    (List.rev !diags)
  |> List.map (fun (line, code, message) ->
         Diagnostic.error ~file:path ~line ~code message)

let scan_file ~in_spf_closure path =
  match read_file path with
  | None -> []
  | Some text -> (
    let lexbuf = Lexing.from_string text in
    Lexing.set_filename lexbuf path;
    match Parse.implementation lexbuf with
    | structure -> scan_structure ~in_spf_closure path structure
    | exception exn -> [ parse_failure path exn ])

let rec ml_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries |> List.sort String.compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if entry = "_build" || String.length entry > 0 && entry.[0] = '.'
           then []
           else if Sys.is_directory path then ml_files path
           else if Filename.check_suffix entry ".ml" then [ path ]
           else [])

let check_tree ~root =
  let closure_dirs = spf_reachable ~root in
  let in_closure path =
    (* path = root/<dir>/…; test the first component under root. *)
    let rec relative p =
      let parent = Filename.dirname p in
      if String.equal parent root then Some (Filename.basename p)
      else if String.equal parent p then None
      else relative parent
    in
    match relative path with
    | Some dir -> List.mem dir closure_dirs
    | None -> false
  in
  List.concat_map
    (fun path -> scan_file ~in_spf_closure:(in_closure path) path)
    (ml_files root)
