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

(* --- The line scans --- *)

(* Blank out comments and string/char literals, preserving the line
   structure so reported line numbers and the column-0 [let] test still
   hold.  Without this the lint would flag its own documentation and
   error messages — the banned names appear there as text, not code.

   The scan follows the reference lexer's comment rules: comments nest,
   and a string literal inside a comment is lexed as a string — so
   `(* "*)" *)` stays one comment — while char literals like '"' and
   '\'' never open a string, inside a comment or out.  {id|…|id}
   quoted-string literals are matched by delimiter. *)
let code_lines text =
  let n = String.length text in
  let out = Buffer.create n in
  let i = ref 0 in
  (* Consume one char as blanked-out: newlines survive, the rest
     becomes a space. *)
  let blank () =
    Buffer.add_char out (if text.[!i] = '\n' then '\n' else ' ');
    incr i
  in
  (* Double-quoted string, [!i] at the opening quote. *)
  let scan_string () =
    blank ();
    let closed = ref false in
    while (not !closed) && !i < n do
      match text.[!i] with
      | '\\' when !i + 1 < n -> blank (); blank ()
      | '"' -> blank (); closed := true
      | _ -> blank ()
    done
  in
  (* {id|…|id} quoted string, [!i] at '{'.  Returns false (consuming
     nothing) when the brace does not actually open one. *)
  let scan_quoted () =
    let j = ref (!i + 1) in
    while
      !j < n && (match text.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
    do
      incr j
    done;
    if !j >= n || text.[!j] <> '|' then false
    else begin
      let close = "|" ^ String.sub text (!i + 1) (!j - !i - 1) ^ "}" in
      let clen = String.length close in
      while !i <= !j do blank () done;
      let closed = ref false in
      while (not !closed) && !i < n do
        if !i + clen <= n && String.sub text !i clen = close then begin
          for _ = 1 to clen do blank () done;
          closed := true
        end
        else blank ()
      done;
      true
    end
  in
  (* Is [!i] (at a single quote) the start of a char literal?  Covers
     'c', '\n', '\\', '\"', '\123', '\xFF'; a lone prime (type
     variables, primed identifiers) has no closing quote nearby and is
     left as code. *)
  let char_literal_end () =
    if !i + 2 < n && text.[!i + 1] = '\\' then
      let rec find j limit =
        if j >= n || j > limit then None
        else if text.[j] = '\'' then Some (j + 1)
        else find (j + 1) limit
      in
      find (!i + 3) (!i + 7)
    else if !i + 2 < n && text.[!i + 1] <> '\'' && text.[!i + 2] = '\'' then
      Some (!i + 3)
    else None
  in
  let scan_char_literal () =
    match char_literal_end () with
    | Some stop ->
      while !i < stop do blank () done;
      true
    | None -> false
  in
  (* Comment body, [!i] at the '(' of "(*".  Recurses on nesting. *)
  let rec scan_comment () =
    blank ();
    blank ();
    let closed = ref false in
    while (not !closed) && !i < n do
      let c = text.[!i] in
      let next = if !i + 1 < n then text.[!i + 1] else '\000' in
      if c = '(' && next = '*' then scan_comment ()
      else if c = '*' && next = ')' then begin
        blank ();
        blank ();
        closed := true
      end
      else if c = '"' then scan_string ()
      else if c = '{' then begin if not (scan_quoted ()) then blank () end
      else if c = '\'' then begin
        if not (scan_char_literal ()) then blank ()
      end
      else blank ()
    done
  in
  while !i < n do
    let c = text.[!i] in
    let next = if !i + 1 < n then text.[!i + 1] else '\000' in
    if c = '(' && next = '*' then scan_comment ()
    else if c = '"' then scan_string ()
    else if c = '{' then begin
      if not (scan_quoted ()) then begin
        Buffer.add_char out c;
        incr i
      end
    end
    else if c = '\'' then begin
      if not (scan_char_literal ()) then begin
        Buffer.add_char out c;
        incr i
      end
    end
    else begin
      Buffer.add_char out c;
      incr i
    end
  done;
  String.split_on_char '\n' (Buffer.contents out)

let contains line needle =
  let n = String.length needle and len = String.length line in
  let rec scan i = i + n <= len && (String.sub line i n = needle || scan (i + 1)) in
  scan 0

(* A toplevel binding: a line starting at column 0 with "let ".  Local
   [let … in] bindings are indented by every style in this tree, so the
   column-0 test cleanly separates module-level state from function
   locals. *)
let is_toplevel_let line =
  String.length line > 4 && String.sub line 0 4 = "let "

(* A toplevel [let] that binds a function: the bound name is followed by
   parameters, not by [=] or a type annotation.  Its body runs per call,
   so a [ref] or [Hashtbl.create] there is fresh state, not a shared
   cell. *)
let binds_function line =
  let n = String.length line in
  let rec skip_spaces i =
    if i < n && line.[i] = ' ' then skip_spaces (i + 1) else i
  in
  let rec ident_end i =
    if i < n then
      match line.[i] with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> ident_end (i + 1)
      | _ -> i
    else i
  in
  let start = skip_spaces 4 in
  let start =
    if start + 4 <= n && String.sub line start 4 = "rec " then
      skip_spaces (start + 4)
    else start
  in
  let name_end = ident_end start in
  let next = skip_spaces name_end in
  name_end > start && next < n
  && match line.[next] with
     | 'a' .. 'z' | '_' | '(' | '~' | '?' -> true
     | _ -> false

let mutable_constructs =
  [ "= ref "; "Hashtbl.create"; "Queue.create"; "Buffer.create";
    "Atomic.make" ]

(* The two pluggable-clock modules: the span profile's [wall] clock and
   the flight recorder's opt-in [Wall] clock. *)
let clock_file path =
  Filename.basename (Filename.dirname path) = "obs"
  && List.mem (Filename.basename path) [ "span.ml"; "tracer.ml" ]

let scan_file ~in_spf_closure path =
  match read_file path with
  | None -> []
  | Some text ->
    let diags = ref [] in
    let add ~line ~code message =
      diags := Diagnostic.error ~file:path ~line ~code message :: !diags
    in
    List.iteri
      (fun index line ->
        let lineno = index + 1 in
        if contains line "Random.self_init" then
          add ~line:lineno ~code:"L001"
            "Random.self_init: seeds must be explicit (Routing_stats.Rng) \
             or parallel runs stop being reproducible";
        if
          (contains line "Unix.gettimeofday" || contains line "Sys.time")
          && not (clock_file path)
        then
          add ~line:lineno ~code:"L002"
            "wall-clock read outside lib/obs/span.ml and lib/obs/tracer.ml: \
             route timing through the pluggable Span or Tracer clock so \
             runs stay deterministic";
        if in_spf_closure && is_toplevel_let line && not (binds_function line)
        then
          List.iter
            (fun needle ->
              if contains line needle then
                add ~line:lineno ~code:"L003"
                  (Printf.sprintf
                     "top-level mutable state (%s) in a module reachable \
                      from Spf_engine — domains may race on it"
                     (String.trim needle)))
            mutable_constructs)
      (code_lines text);
    List.rev !diags

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
           else if
             Filename.check_suffix entry ".ml"
             || Filename.check_suffix entry ".mli"
           then [ path ]
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
