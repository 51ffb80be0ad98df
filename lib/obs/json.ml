type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest of %.15g / %.16g / %.17g that parses back to the same double:
   deterministic, round-trips exactly, avoids "0.30000000000000004"-style
   noise for the common cases. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then
    (* Keep a fractionless integral float distinguishable from an int is
       not needed — JSON has one number type — but ".0" reads better. *)
    Printf.sprintf "%.1f" f
  else begin
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match try_prec 15 with
    | Some s -> s
    | None -> (
      match try_prec 16 with
      | Some s -> s
      | None -> Printf.sprintf "%.17g" f)
  end

let escape_string buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let number_repr f =
  if Float.is_nan f then "null" (* JSON has no NaN; null is the least bad *)
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else float_repr f

let rec write ~indent ~level buffer v =
  let sep_comma, sep_colon, opening, closing =
    if indent <= 0 then ((fun () -> Buffer.add_char buffer ','),
                         (fun () -> Buffer.add_char buffer ':'),
                         (fun c -> Buffer.add_char buffer c),
                         (fun c -> Buffer.add_char buffer c))
    else begin
      let pad n = Buffer.add_string buffer (String.make (indent * n) ' ') in
      ((fun () -> Buffer.add_string buffer ",\n"; pad (level + 1)),
       (fun () -> Buffer.add_string buffer ": "),
       (fun c -> Buffer.add_char buffer c; Buffer.add_char buffer '\n';
         pad (level + 1)),
       (fun c -> Buffer.add_char buffer '\n'; pad level;
         Buffer.add_char buffer c))
    end
  in
  match v with
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float f -> Buffer.add_string buffer (number_repr f)
  | String s -> escape_string buffer s
  | List [] -> Buffer.add_string buffer "[]"
  | List (x :: rest) ->
    opening '[';
    write ~indent ~level:(level + 1) buffer x;
    List.iter (fun x -> sep_comma (); write ~indent ~level:(level + 1) buffer x)
      rest;
    closing ']'
  | Obj [] -> Buffer.add_string buffer "{}"
  | Obj ((k, x) :: rest) ->
    let field (k, x) =
      escape_string buffer k;
      sep_colon ();
      write ~indent ~level:(level + 1) buffer x
    in
    opening '{';
    field (k, x);
    List.iter (fun kv -> sep_comma (); field kv) rest;
    closing '}'

let to_string v =
  let buffer = Buffer.create 256 in
  write ~indent:0 ~level:0 buffer v;
  Buffer.contents buffer

let to_string_pretty v =
  let buffer = Buffer.create 1024 in
  write ~indent:2 ~level:0 buffer v;
  Buffer.contents buffer

(* ---------------------------------------------------------------- *)
(* Parser: recursive descent over the string with a mutable cursor.  *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail message = raise (Parse_error (!pos, message)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buffer
        | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buffer '"'
           | '\\' -> Buffer.add_char buffer '\\'
           | '/' -> Buffer.add_char buffer '/'
           | 'b' -> Buffer.add_char buffer '\b'
           | 'f' -> Buffer.add_char buffer '\012'
           | 'n' -> Buffer.add_char buffer '\n'
           | 'r' -> Buffer.add_char buffer '\r'
           | 't' -> Buffer.add_char buffer '\t'
           | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             let code =
               try int_of_string ("0x" ^ hex)
               with _ -> fail "bad \\u escape"
             in
             (* Encode the code point as UTF-8 (BMP only; surrogate
                pairs are passed through as-is, which suffices for the
                ASCII event streams we produce). *)
             if code < 0x80 then Buffer.add_char buffer (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buffer
                 (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
             end
           | _ -> fail "unknown escape");
          loop ()
        | c -> Buffer.add_char buffer c; loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    let text = String.sub s start (!pos - start) in
    let has_frac =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
    in
    if not has_frac then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        (* Integer overflowing native int: fall back to float. *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields (kv :: acc)
          | Some '}' -> advance (); Obj (List.rev (kv :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, message) ->
    Error (Printf.sprintf "json: %s at offset %d" message at)

(* ---------------------------------------------------------------- *)

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" key))
  | _ -> Error (Printf.sprintf "not an object (looking for %S)" key)

(* [int_of_float] is unspecified outside OCaml's int range, so integral
   floats there are not integers either. *)
let to_int = function
  | Int i -> Ok i
  | Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
    Ok (int_of_float f)
  | _ -> Error "not an integer"

let to_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | _ -> Error "not a number"

let to_bool = function Bool b -> Ok b | _ -> Error "not a boolean"

let to_str = function String s -> Ok s | _ -> Error "not a string"

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b || (Float.is_nan a && Float.is_nan b)
  | Int a, Float b | Float b, Int a -> float_of_int a = b
  | String a, String b -> String.equal a b
  | List a, List b -> (
    try List.for_all2 equal a b with Invalid_argument _ -> false)
  | Obj a, Obj b ->
    let sort l = List.sort (fun (k, _) (k', _) -> compare k k') l in
    let a = sort a and b = sort b in
    (try
       List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && equal v v')
         a b
     with Invalid_argument _ -> false)
  | _ -> false
