(* The float state is an all-float record, stored flat, so [add] writes
   unboxed floats; as mutable fields of a record holding [count] every
   write would box. *)
type acc = {
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable total : float;
}

type t = { mutable count : int; acc : acc }

let create () =
  { count = 0;
    acc =
      { mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity; total = 0. }
  }

let[@inline] add t x =
  let a = t.acc in
  t.count <- t.count + 1;
  let delta = x -. a.mean in
  a.mean <- a.mean +. (delta /. float_of_int t.count);
  let delta2 = x -. a.mean in
  a.m2 <- a.m2 +. (delta *. delta2);
  if x < a.min_v then a.min_v <- x;
  if x > a.max_v then a.max_v <- x;
  a.total <- a.total +. x

let count t = t.count

let mean t = if t.count = 0 then 0. else t.acc.mean

let variance t =
  if t.count < 2 then 0. else t.acc.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)

let min_value t = t.acc.min_v

let max_value t = t.acc.max_v

let total t = t.acc.total

let copy t = { count = t.count; acc = { t.acc with mean = t.acc.mean } }

let merge a b =
  if a.count = 0 then copy b
  else if b.count = 0 then copy a
  else begin
    let n = a.count + b.count in
    let fa = float_of_int a.count and fb = float_of_int b.count in
    let fn = float_of_int n in
    let a' = a.acc and b' = b.acc in
    let delta = b'.mean -. a'.mean in
    let mean = a'.mean +. (delta *. fb /. fn) in
    let m2 = a'.m2 +. b'.m2 +. (delta *. delta *. fa *. fb /. fn) in
    { count = n;
      acc =
        { mean;
          m2;
          min_v = Float.min a'.min_v b'.min_v;
          max_v = Float.max a'.max_v b'.max_v;
          total = a'.total +. b'.total } }
  end

let reset t =
  let a = t.acc in
  t.count <- 0;
  a.mean <- 0.;
  a.m2 <- 0.;
  a.min_v <- infinity;
  a.max_v <- neg_infinity;
  a.total <- 0.

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" t.count
    (mean t) (stddev t) t.acc.min_v t.acc.max_v
