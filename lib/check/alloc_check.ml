(* A0xx — hot-path allocation analysis.

   The repo's performance story (ROADMAP item on zero-allocation steady
   state) rests on a set of functions that must not allocate: the
   per-period metric sweep, the batch [_into] APIs, load assignment, the
   event queue, the SPF repair loop, the tracer's enabled path.  Those
   functions carry a [@@hot_path] attribute at their definition.

   This pass proves the property against what the compiler actually
   emitted, not against the source: a `--profile check` build captures
   each unit's Cmm dump (`<module>.cmx.dump`, see the root dune file),
   in which every allocation is an explicit `(alloc{dbg} hdr …)` node or
   a call to an allocating runtime primitive.  We read the allowlist out
   of the .cmt files (so annotation and analysis can never drift apart),
   find each annotated function's compiled body in its unit's dump by
   symbol demangling, and report every allocation site with the source
   location the compiler recorded.

   Codes (catalogue in DESIGN.md §8):
   - A001 error   allocation site inside a [@@hot_path] function
   - A002 error   annotated function has no native-dump coverage
   - A003 warning an artifact could not be read or parsed
   - A004 info    scan summary (functions checked, units scanned)
   - A000 warning no artifacts / no annotations found (configuration) *)

(* --- Cmm dump parsing --- *)

(* Allocating runtime primitives that appear as extcalls rather than
   alloc nodes.  caml_modify / caml_initialize are write barriers, not
   allocations, and checkbound is a bounds check — all deliberately
   absent. *)
let allocating_extcalls =
  [ "caml_make_vect";
    "caml_make_float_vect";
    "caml_make_array";
    "caml_alloc_dummy";
    "caml_alloc_dummy_float";
    "caml_obj_dup" ]

type site = {
  dbg : string;  (* raw debuginfo chain, outermost frame first *)
  what : string;  (* human description of the allocation *)
}

type dump_fun = { sym : string; sites : site list }

(* "{file.ml:12,3-20;other.ml:4,1-9}" -> outermost frame "file.ml", 12.
   The outermost frame is the one inside the annotated function; inner
   frames are inlined callees. *)
let site_location dbg =
  if String.length dbg < 2 || dbg.[0] <> '{' then None
  else
    let body = String.sub dbg 1 (String.length dbg - 2) in
    let first =
      match String.index_opt body ';' with
      | Some i -> String.sub body 0 i
      | None -> body
    in
    match String.rindex_opt first ':' with
    | None -> None
    | Some i -> (
      let file = String.sub first 0 i in
      let rest = String.sub first (i + 1) (String.length first - i - 1) in
      let line_s =
        match String.index_opt rest ',' with
        | Some j -> String.sub rest 0 j
        | None -> rest
      in
      match int_of_string_opt line_s with
      | Some line -> Some (file, line)
      | None -> None)

(* OCaml block headers encode the size in the upper bits and the tag in
   the low byte; a handful of tags identify what boxed. *)
let describe_header hdr =
  let tag = hdr land 0xff in
  let wosize = hdr lsr 10 in
  match tag with
  | 253 -> "boxes a float"
  | 254 -> Printf.sprintf "allocates a float array (%d elements)" wosize
  | 252 -> "allocates a string"
  | 247 -> Printf.sprintf "allocates a closure (%d words)" wosize
  | 0 -> Printf.sprintf "allocates a block (%d words)" wosize
  | t -> Printf.sprintf "allocates a tag-%d block (%d words)" t wosize

let is_ident_char = function
  | ' ' | '\n' | '\t' | '\r' | '(' | ')' | '"' -> false
  | _ -> true

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* One linear scan over the dump text.  Function forms are top-level
   `(function{dbg} symbol …)` s-expressions; we attribute every alloc
   node and allocating extcall to the most recently opened function.
   Double-quoted strings are skipped so parens and keywords inside
   literals cannot confuse the scan. *)
let parse_dump text =
  let n = String.length text in
  let funs = ref [] in
  let sym = ref "" in
  let sites = ref [] in
  let flush () =
    if !sym <> "" then funs := { sym = !sym; sites = List.rev !sites } :: !funs;
    sym := "";
    sites := []
  in
  let i = ref 0 in
  let read_token_at j =
    let k = ref j in
    while !k < n && is_ident_char text.[!k] do incr k done;
    (String.sub text j (!k - j), !k)
  in
  let skip_ws j =
    let k = ref j in
    while !k < n && (text.[!k] = ' ' || text.[!k] = '\n' || text.[!k] = '\t') do
      incr k
    done;
    !k
  in
  while !i < n do
    match text.[!i] with
    | '"' ->
      (* Skip string literals, honoring backslash escapes. *)
      incr i;
      while
        !i < n && text.[!i] <> '"'
      do
        if text.[!i] = '\\' && !i + 1 < n then i := !i + 2 else incr i
      done;
      incr i
    | '(' ->
      let tok, after = read_token_at (!i + 1) in
      if starts_with "function" tok then begin
        flush ();
        let j = skip_ws after in
        let s, _ = read_token_at j in
        sym := s
      end
      else if !sym <> "" && starts_with "alloc" tok then begin
        let dbg = String.sub tok 5 (String.length tok - 5) in
        let j = skip_ws after in
        let hdr_tok, _ = read_token_at j in
        let what =
          match int_of_string_opt hdr_tok with
          | Some hdr -> describe_header hdr
          | None -> "allocates a block"
        in
        sites := { dbg; what } :: !sites
      end
      else if !sym <> "" && tok = "extcall" then begin
        let j = skip_ws after in
        if j < n && text.[j] = '"' then begin
          let k = ref (j + 1) in
          while !k < n && text.[!k] <> '"' do incr k done;
          let name = String.sub text (j + 1) (!k - j - 1) in
          if List.mem name allocating_extcalls then begin
            (* Debuginfo, when present, is glued to the closing quote. *)
            let dbg_tok, _ = read_token_at (!k + 1) in
            sites := { dbg = dbg_tok; what = "calls " ^ name } :: !sites
          end;
          i := !k
        end
      end;
      i := after
    | _ -> incr i
  done;
  flush ();
  List.rev !funs

(* "camlRouting_spf__Dijkstra.compute_into_538" ->
   ("Routing_spf__Dijkstra", "compute_into").  The numeric stamp the
   compiler appends is stripped; nested named bindings keep their source
   name the same way. *)
let demangle sym =
  if not (starts_with "caml" sym) then None
  else
    let rest = String.sub sym 4 (String.length sym - 4) in
    match String.index_opt rest '.' with
    | None -> None
    | Some i ->
      let unit = String.sub rest 0 i in
      let name = String.sub rest (i + 1) (String.length rest - i - 1) in
      let base =
        match String.rindex_opt name '_' with
        | Some j
          when j + 1 < String.length name
               && String.for_all
                    (fun c -> c >= '0' && c <= '9')
                    (String.sub name (j + 1) (String.length name - j - 1)) ->
          String.sub name 0 j
        | _ -> name
      in
      Some (unit, base)

(* --- The pass --- *)

(* The dump for unit "Routing_spf__Dijkstra" is named
   "routing_spf__Dijkstra.cmx.dump" (dune lowercases the first letter of
   the file name only). *)
let dump_matches_unit path unit =
  let base = Filename.basename path in
  match Filename.chop_suffix_opt ~suffix:".cmx.dump" base with
  | None -> false
  | Some stem -> String.capitalize_ascii stem = unit

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check ~roots =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let cmts = Cmt_util.find_all ~ext:".cmt" roots in
  let dumps = Cmt_util.find_all ~ext:".cmx.dump" roots in
  (* Allowlist: (unit, annotated binding) pairs out of the .cmt files. *)
  let annotated = ref [] in
  List.iter
    (fun path ->
      match Cmt_util.read_cmt path with
      | Error reason ->
        add
          (Diagnostic.warning ~file:path ~code:"A003"
             (Printf.sprintf "skipping artifact: %s" reason))
      | Ok cmt ->
        List.iter
          (fun a -> annotated := (cmt.Cmt_util.modname, a) :: !annotated)
          (Cmt_util.hot_path_bindings cmt.Cmt_util.structure))
    cmts;
  let annotated = List.rev !annotated in
  if cmts = [] then
    add
      (Diagnostic.warning ~code:"A000"
         (Printf.sprintf
            "no .cmt artifacts under %s — wrong --build-dir, or not built \
             yet?"
            (String.concat ", " roots)))
  else if annotated = [] then
    add
      (Diagnostic.warning ~code:"A000"
         "no [@@hot_path] annotations found in any compilation unit");
  (* Parse only the dumps for units that carry annotations. *)
  let units = List.sort_uniq compare (List.map fst annotated) in
  let parsed =
    List.filter_map
      (fun unit ->
        match List.find_opt (fun p -> dump_matches_unit p unit) dumps with
        | None -> None
        | Some path -> (
          match parse_dump (read_file path) with
          | exception e ->
            add
              (Diagnostic.warning ~file:path ~code:"A003"
                 (Printf.sprintf "failed to parse Cmm dump: %s"
                    (Printexc.to_string e)));
            None
          | funs -> Some (unit, funs)))
      units
  in
  let checked = ref 0 in
  List.iter
    (fun (unit, (a : Cmt_util.annotated)) ->
      match List.assoc_opt unit parsed with
      | None ->
        add
          (Diagnostic.error ~file:a.file ~line:a.line ~code:"A002"
             (Printf.sprintf
                "[@@hot_path] %s has no native dump coverage — run `dune \
                 clean && DUNE_CACHE=disabled dune build --profile check \
                 --sandbox none @all` so %s.cmx.dump is emitted, then \
                 invoke _build/default/bin/arpanet_check.exe directly (a \
                 later dune command prunes the dumps)"
                a.name unit))
      | Some funs -> (
        let matching =
          List.filter
            (fun f ->
              match demangle f.sym with
              | Some (u, base) -> u = unit && base = a.name
              | None -> false)
            funs
        in
        match matching with
        | [] ->
          add
            (Diagnostic.error ~file:a.file ~line:a.line ~code:"A002"
               (Printf.sprintf
                  "[@@hot_path] %s not found in %s's native dump (fully \
                   inlined away, or renamed?)"
                  a.name unit))
        | _ ->
          incr checked;
          List.iter
            (fun f ->
              List.iter
                (fun s ->
                  let file, line =
                    match site_location s.dbg with
                    | Some (file, line) -> (file, line)
                    | None -> (a.file, a.line)
                  in
                  add
                    (Diagnostic.error ~file ~line ~code:"A001"
                       (Printf.sprintf
                          "hot path %s.%s %s%s — [@@hot_path] functions \
                           must be allocation-free"
                          unit a.name s.what
                          (if s.dbg = "" then ""
                           else Printf.sprintf " (at %s)" s.dbg))))
                f.sites)
            matching))
    annotated;
  if annotated <> [] then begin
    let flagged =
      List.length (List.filter (fun d -> d.Diagnostic.code = "A001") !diags)
    in
    add
      (Diagnostic.info ~code:"A004"
         (Printf.sprintf
            "alloc check: %d hot-path function(s) across %d unit(s) checked \
             against %d Cmm dump(s); %d allocation site(s) flagged"
            !checked (List.length units) (List.length parsed) flagged))
  end;
  List.rev !diags
