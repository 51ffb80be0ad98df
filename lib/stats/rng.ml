(* The 64-bit state lives in an 8-byte buffer read and written through
   the unboxed bytes primitives, and [mix]/[next] are inlined into every
   draw, so drawing allocates only the float or int64 a draw returns (a
   [mutable state : int64] field would box on every write). *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = make (mix (Int64.of_int seed))

let[@inline] next t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix state

let bits64 t = next t

let split t = make (next t)

let copy t = Bytes.copy t

let int t n =
  if n <= 0 then invalid_arg "Rng.int: n <= 0";
  (* Rejection-free for our purposes: modulo bias is negligible since
     n is always far below 2^63 in this codebase. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

let[@inline] float t x =
  let u = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  u /. 9007199254740992. *. x (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let[@inline] exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean <= 0";
  let u = ref (float t 1.) in
  if !u = 0. then u := epsilon_float;
  -.mean *. log !u

let poisson t ~mean =
  if mean <= 0. then 0
  else if mean < 30. then begin
    let limit = exp (-.mean) in
    let rec draw k p =
      let p = p *. float t 1. in
      if p <= limit then k else draw (k + 1) p
    in
    draw 0 1.
  end
  else begin
    (* Box-Muller normal approximation, adequate for workload generation. *)
    let u1 = Float.max epsilon_float (float t 1.) in
    let u2 = float t 1. in
    let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
    max 0 (int_of_float (Float.round (mean +. (z *. sqrt mean))))
  end

let normal t =
  (* Box-Muller, cosine branch; one draw per call keeps the stream
     position a simple function of the call count. *)
  let u1 = Float.max epsilon_float (float t 1.) in
  let u2 = float t 1. in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let pareto t ~alpha ~x_min =
  if alpha <= 0. then invalid_arg "Rng.pareto: alpha <= 0";
  if x_min <= 0. then invalid_arg "Rng.pareto: x_min <= 0";
  let u = ref (float t 1.) in
  if !u = 0. then u := epsilon_float;
  x_min *. (!u ** (-1. /. alpha))

let lognormal t ~mu ~sigma =
  if sigma < 0. then invalid_arg "Rng.lognormal: sigma < 0";
  exp (mu +. (sigma *. normal t))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
