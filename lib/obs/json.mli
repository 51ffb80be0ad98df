(** A minimal JSON value type with a deterministic compact printer and a
    strict parser.

    The telemetry subsystem serializes events and metric snapshots without
    pulling in an external JSON dependency.  Printing is byte-deterministic:
    object fields keep their construction order, and floats print with the
    shortest decimal representation that round-trips through
    [float_of_string].  The parser accepts exactly the JSON this module (or
    any standards-compliant encoder) produces; numbers without a fraction
    or exponent decode as {!Int}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering (no insignificant whitespace). *)

val to_string_pretty : t -> string
(** Two-space-indented multi-line rendering, for [--metrics-out] files a
    human will open. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing whitespace is allowed, trailing garbage
    is an error.  Error strings include a character offset. *)

(** {2 Accessors}

    Total functions used by decoders: each returns [Error _] rather than
    raising when the shape does not match. *)

val member : string -> t -> (t, string) result
(** Field of an {!Obj}; [Error _] when absent or not an object. *)

val to_int : t -> (int, string) result
(** Accepts {!Int} and integral {!Float} within OCaml's int range
    [\[min_int, max_int\]]; anything else is ["not an integer"]. *)

val to_float : t -> (float, string) result
(** Accepts {!Float} and {!Int} (JSON does not distinguish them). *)

val to_bool : t -> (bool, string) result

val to_str : t -> (string, string) result

val equal : t -> t -> bool
(** Structural equality; object fields compare order-insensitively,
    [Int n] and [Float f] compare equal when [f = float_of_int n]. *)
