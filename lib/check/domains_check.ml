(* D0xx — domain-safety lint over typed ASTs.

   The L0xx source lint (Src_check) catches textual hazards in the
   Domain-parallel SPF path; this pass works on what the type checker
   saw.  It finds every closure handed to [Domain_pool.parallel_for] —
   the pool's one loop — in the build's .cmt files and flags shared
   mutable state the body captures from its enclosing scope:

   - D001 error   a captured ref is assigned (:=, incr, decr) in the body
   - D002 error   a captured record's mutable field is set in the body
   - D003 error   a captured Bytes.t is written in the body
   - D004 warning a captured array is written at an index that does not
                  depend on any body-local variable (every worker hits
                  the same slot)
   - D005 info    a captured array is written both by the parallel body
                  and elsewhere in the same scope (the sequential
                  fallback pattern — benign only while the two writers
                  cover disjoint index ranges)
   - D000 warning a .cmt artifact could not be read

   What makes the existing code clean under these rules, by design:
   per-worker scratch arrives as a body parameter (so it is body-local,
   not captured), result arrays are written at indices derived from the
   body's loop parameter (disjoint by construction, surfaced as D005
   only when a sequential fallback shares them), and cross-domain
   counters go through Atomic, which never appears as a raw mutation.
   Catalogue in DESIGN.md §8. *)

open Typedtree

(* The pool's one loop, matched by path suffix so a local stub module
   (the test fixtures) counts too. *)
let is_parallel_for p =
  let n = Path.name p in
  String.equal n "Domain_pool.parallel_for"
  || String.ends_with ~suffix:".Domain_pool.parallel_for" n

let path_equals names p =
  let n = Path.name p in
  List.exists (String.equal n) names

let ref_writers = [ "Stdlib.:="; "Stdlib.incr"; "Stdlib.decr" ]

let array_writers = [ "Stdlib.Array.set"; "Stdlib.Array.unsafe_set" ]

let bytes_writers = [ "Stdlib.Bytes.set"; "Stdlib.Bytes.unsafe_set" ]

(* The storage a write lands in: the head identifier of the subject
   expression.  [t.trees.(i) <- v] writes through field [trees] of [t],
   so the head is [t]; module-level state ([Pdot]) is shared by
   definition. *)
type head = Local of Ident.t | Global of Path.t

let rec head_of e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some (Local id)
  | Texp_ident (p, _, _) -> Some (Global p)
  | Texp_field (e, _, _) -> head_of e
  | _ -> None

(* Human name of the storage being written: the head plus any field
   path, e.g. "t.trees". *)
let rec subject_name e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Path.name p
  | Texp_field (e, _, lbl) -> subject_name e ^ "." ^ lbl.Types.lbl_name
  | _ -> "<expression>"

(* Idents bound anywhere inside the expression: parameters, lets, match
   cases, for-loop indices.  A write whose head is NOT in this set
   mutates captured state. *)
let bound_idents fexpr =
  let tbl = Hashtbl.create 64 in
  let add id = Hashtbl.replace tbl (Ident.unique_name id) () in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_var (id, _) -> add id
    | Tpat_alias (_, id, _) -> add id
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_for (id, _, _, _, _, _) -> add id
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.expr it fexpr;
  tbl

let is_bound bound id = Hashtbl.mem bound (Ident.unique_name id)

(* Does the expression mention any body-local variable?  Used on index
   expressions: [out.(k) <- …] with [k] a body parameter is the
   partitioned-write idiom; [out.(0) <- …] is a rendezvous. *)
let mentions_bound bound e =
  let found = ref false in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) when is_bound bound id -> found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let loc_file_line (loc : Location.t) =
  (loc.Location.loc_start.Lexing.pos_fname, loc.Location.loc_start.Lexing.pos_lnum)

(* Positional arguments of an application, in order. *)
let nolabel_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

type array_write = {
  head : head;
  name : string;
  loc : Location.t;
  index_local : bool;
}

(* All mutation sites inside one expression: captured-ref assignments,
   setfields, Bytes writes, and every array write (classified by whether
   its index depends on a body-local). *)
let scan_writes ~bound fexpr ~on_ref ~on_setfield ~on_bytes ~on_array =
  let classify_head e =
    match head_of e with
    | Some (Local id) when is_bound bound id -> None
    | Some h -> Some h
    | None -> None
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
      match f.exp_desc with
      | Texp_ident (p, _, _) -> (
        let args = nolabel_args args in
        if path_equals ref_writers p then
          match args with
          | subject :: _ -> (
            match classify_head subject with
            | Some _ -> on_ref (subject_name subject) e.exp_loc
            | None -> ())
          | [] -> ()
        else if path_equals bytes_writers p then
          match args with
          | subject :: _ -> (
            match classify_head subject with
            | Some _ -> on_bytes (subject_name subject) e.exp_loc
            | None -> ())
          | [] -> ()
        else if path_equals array_writers p then
          match args with
          | subject :: index :: _ -> (
            match classify_head subject with
            | Some h ->
              on_array
                { head = h;
                  name = subject_name subject;
                  loc = e.exp_loc;
                  index_local = mentions_bound bound index }
            | None -> ())
          | _ -> ())
      | _ -> ())
    | Texp_setfield (subject, _, _, _) -> (
      match classify_head subject with
      | Some _ -> on_setfield (subject_name subject) e.exp_loc
      | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it fexpr

let is_function e = match e.exp_desc with Texp_function _ -> true | _ -> false

(* The body argument of a [parallel_for] application: the last positional
   argument, resolved through let-bound function names ([let one s i = …;
   parallel_for … ~init n one]) when needed. *)
let body_of_call fn_map args =
  match List.rev (nolabel_args args) with
  | [] -> None
  | last :: _ -> (
    if is_function last then Some last
    else
      match last.exp_desc with
      | Texp_ident (Path.Pident id, _, _) ->
        Hashtbl.find_opt fn_map (Ident.unique_name id)
      | _ -> None)

let check_unit (cmt : Cmt_util.cmt) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Pass 1: every let-bound function in the unit, keyed by ident. *)
  let fn_map = Hashtbl.create 64 in
  let collect_vb sub vb =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) when is_function vb.vb_expr ->
      Hashtbl.replace fn_map (Ident.unique_name id) vb.vb_expr
    | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let it1 =
    { Tast_iterator.default_iterator with value_binding = collect_vb }
  in
  it1.structure it1 cmt.Cmt_util.structure;
  (* Pass 2: parallel_for call sites and their bodies. *)
  let bodies = ref [] in
  let find_calls sub e =
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
      match f.exp_desc with
      | Texp_ident (p, _, _) when is_parallel_for p -> (
        match body_of_call fn_map args with
        | Some body -> bodies := (Path.name p, e.exp_loc, body) :: !bodies
        | None -> ())
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it2 = { Tast_iterator.default_iterator with expr = find_calls } in
  it2.structure it2 cmt.Cmt_util.structure;
  let bodies = List.rev !bodies in
  (* Pass 3 per body: captured-state writes. *)
  let body_array_writes = Hashtbl.create 16 in
  (* ident -> (call site line, write loc) for D005 cross-referencing *)
  let body_write_locs = Hashtbl.create 16 in
  List.iter
    (fun (entry, call_loc, body) ->
      let bound = bound_idents body in
      let _, call_line = loc_file_line call_loc in
      let context name =
        Printf.sprintf "%s captured by the %s body at line %d" name entry
          call_line
      in
      scan_writes ~bound body
        ~on_ref:(fun name loc ->
          let file, line = loc_file_line loc in
          add
            (Diagnostic.error ~file ~line ~code:"D001"
               (Printf.sprintf
                  "parallel body mutates shared ref %s — every worker races \
                   on it; use per-worker state (parallel_for ~init) or \
                   Atomic"
                  (context name))))
        ~on_setfield:(fun name loc ->
          let file, line = loc_file_line loc in
          add
            (Diagnostic.error ~file ~line ~code:"D002"
               (Printf.sprintf
                  "parallel body sets a mutable field of %s — unsynchronized \
                   cross-domain write; use per-worker scratch or Atomic"
                  (context name))))
        ~on_bytes:(fun name loc ->
          let file, line = loc_file_line loc in
          add
            (Diagnostic.error ~file ~line ~code:"D003"
               (Printf.sprintf
                  "parallel body writes shared bytes %s — unsynchronized \
                   cross-domain write"
                  (context name))))
        ~on_array:(fun w ->
          Hashtbl.replace body_write_locs w.loc ();
          (match w.head with
          | Local id ->
            if not (Hashtbl.mem body_array_writes (Ident.unique_name id)) then
              Hashtbl.add body_array_writes (Ident.unique_name id)
                (w.name, call_line, w.loc)
          | Global _ -> ());
          if not w.index_local then begin
            let file, line = loc_file_line w.loc in
            add
              (Diagnostic.warning ~file ~line ~code:"D004"
                 (Printf.sprintf
                    "parallel body writes array %s at an index independent \
                     of the body's own variables — every worker writes the \
                     same slot"
                    (context w.name)))
          end))
    bodies;
  (* Pass 4: D005 — the same captured array also written outside any
     parallel body (the sequential-fallback pattern). *)
  if Hashtbl.length body_array_writes > 0 then begin
    let outside sub e =
      (match e.exp_desc with
      | Texp_apply (f, args) -> (
        match f.exp_desc with
        | Texp_ident (p, _, _) when path_equals array_writers p -> (
          match nolabel_args args with
          | subject :: _ -> (
            match head_of subject with
            | Some (Local id)
              when Hashtbl.mem body_array_writes (Ident.unique_name id)
                   && not (Hashtbl.mem body_write_locs e.exp_loc) ->
              let name, call_line, _ =
                Hashtbl.find body_array_writes (Ident.unique_name id)
              in
              let file, line = loc_file_line e.exp_loc in
              add
                (Diagnostic.info ~file ~line ~code:"D005"
                   (Printf.sprintf
                      "array %s is written here and by the parallel body of \
                       the Domain_pool call at line %d (sequential-fallback \
                       pattern) — safe only while the two writers cover \
                       disjoint index ranges"
                      name call_line))
            | _ -> ())
          | [] -> ())
        | _ -> ())
      | _ -> ());
      Tast_iterator.default_iterator.expr sub e
    in
    let it4 = { Tast_iterator.default_iterator with expr = outside } in
    it4.structure it4 cmt.Cmt_util.structure
  end;
  List.rev !diags

let check ~roots =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let cmts = Cmt_util.find_all ~ext:".cmt" roots in
  if cmts = [] then
    add
      (Diagnostic.warning ~code:"D000"
         (Printf.sprintf "no .cmt artifacts under %s — wrong --build-dir?"
            (String.concat ", " roots)));
  List.iter
    (fun path ->
      match Cmt_util.read_cmt path with
      | Error reason ->
        add
          (Diagnostic.warning ~file:path ~code:"D000"
             (Printf.sprintf "skipping artifact: %s" reason))
      | Ok cmt -> List.iter add (check_unit cmt))
    cmts;
  List.rev !diags
