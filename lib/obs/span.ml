type clock = Tracer.clock

let untimed = Tracer.Untimed

let wall = Tracer.Wall

(* All-float records are flat: their fields store unboxed, where a float
   field of a mixed record would box on every write. *)
type sums = {
  mutable total_s : float;
  mutable max_s : float;
  mutable words : float;
}

type cell = {
  mutable count : int;
  sums : sums;
  q50 : Routing_stats.Quantile.t;
  q95 : Routing_stats.Quantile.t;
  q99 : Routing_stats.Quantile.t;
}

(* Minor words the recorder itself has allocated under this profile's
   timed clock, ever: what every open stage subtracts. *)
type own = { mutable book : float }

type t = {
  clock : clock;
  timed : bool;
  cells : (string, cell) Hashtbl.t;
  own : own;
}

let create ?(clock = untimed) () =
  { clock;
    timed = (match clock with Tracer.Untimed -> false | Wall | Fn _ -> true);
    cells = Hashtbl.create 16;
    own = { book = 0. } }

let cell t name =
  match Hashtbl.find_opt t.cells name with
  | Some c -> c
  | None ->
    let c =
      { count = 0;
        sums = { total_s = 0.; max_s = 0.; words = 0. };
        q50 = Routing_stats.Quantile.create 0.50;
        q95 = Routing_stats.Quantile.create 0.95;
        q99 = Routing_stats.Quantile.create 0.99 }
    in
    Hashtbl.add t.cells name c;
    c

(* An open stage's readings at [enter]: the clock, the allocation
   counter and the profile's bookkeeping total. *)
type marks = {
  mutable t0 : float;
  mutable w0 : float;
  mutable b0 : float;
}

type stage = {
  on : bool; (* a live tracer or a profile: anything to record *)
  tracer : Tracer.t;
  id : int;
  profile : (t * cell) option;
  marks : marks;
}

let stage ?profile tracer name =
  { on = Tracer.enabled tracer || Option.is_some profile;
    tracer;
    id = Tracer.intern tracer name;
    profile = Option.map (fun p -> (p, cell p name)) profile;
    marks = { t0 = 0.; w0 = 0.; b0 = 0. } }

let observe c elapsed words =
  c.count <- c.count + 1;
  let s = c.sums in
  s.total_s <- s.total_s +. elapsed;
  if elapsed > s.max_s then s.max_s <- elapsed;
  s.words <- s.words +. words;
  Routing_stats.Quantile.add c.q50 elapsed;
  Routing_stats.Quantile.add c.q95 elapsed;
  Routing_stats.Quantile.add c.q99 elapsed

(* Under a timed clock every boundary brackets its own work with two
   [Gc.minor_words] readings and adds the difference to the profile's
   bookkeeping total; a stage's words are the counter's advance less
   that total's, so the recorder's allocations (a boxed clock reading,
   a tracer [Fn] clock) never land on the stages it measures. *)
let[@inline never] enter_on s =
  match s.profile with
  | Some (p, _) when p.timed ->
    let w = Gc.minor_words () in
    Tracer.span_begin s.tracer s.id;
    let m = s.marks in
    m.t0 <- Tracer.now p.clock;
    let w' = Gc.minor_words () in
    p.own.book <- p.own.book +. (w' -. w);
    m.w0 <- w';
    m.b0 <- p.own.book
  | _ -> Tracer.span_begin s.tracer s.id

let[@inline never] leave_on s =
  match s.profile with
  | None -> Tracer.span_end s.tracer s.id
  | Some (p, c) when p.timed ->
    let w = Gc.minor_words () in
    let m = s.marks in
    let words = w -. m.w0 -. (p.own.book -. m.b0) in
    observe c (Tracer.now p.clock -. m.t0) words;
    Tracer.span_end s.tracer s.id;
    p.own.book <- p.own.book +. (Gc.minor_words () -. w)
  | Some (_, c) ->
    Tracer.span_end s.tracer s.id;
    observe c 0. 0.

let enter s = if s.on then enter_on s [@@hot_path]

let leave s = if s.on then leave_on s [@@hot_path]

type row = {
  name : string;
  count : int;
  total_s : float;
  max_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  minor_words : float;
}

let quantile_or_zero q =
  let v = Routing_stats.Quantile.value q in
  if Float.is_nan v then 0. else v

let report t =
  Hashtbl.fold
    (fun name (c : cell) acc ->
      { name;
        count = c.count;
        total_s = c.sums.total_s;
        max_s = c.sums.max_s;
        p50_s = quantile_or_zero c.q50;
        p95_s = quantile_or_zero c.q95;
        p99_s = quantile_or_zero c.q99;
        minor_words = c.sums.words }
      :: acc)
    t.cells []
  |> List.sort (fun a b -> String.compare a.name b.name)

let to_json t =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("name", Json.String r.name);
             ("count", Json.Int r.count);
             ("total_s", Json.Float r.total_s);
             ("max_s", Json.Float r.max_s);
             ("p50_s", Json.Float r.p50_s);
             ("p95_s", Json.Float r.p95_s);
             ("p99_s", Json.Float r.p99_s);
             ("minor_words", Json.Float r.minor_words) ])
       (report t))

let pp ppf t =
  let rows =
    List.sort (fun a b -> compare b.total_s a.total_s) (report t)
  in
  let per_call r v = if r.count > 0 then v /. float_of_int r.count else 0. in
  Format.fprintf ppf "@[<v>%-24s %10s %12s %12s %10s %10s %10s %12s %12s@,"
    "stage" "count" "total ms" "mean us" "p50 us" "p95 us" "p99 us" "max us"
    "words/call";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-24s %10d %12.2f %12.1f %10.1f %10.1f %10.1f %12.1f %12.1f@," r.name
        r.count (1000. *. r.total_s)
        (1e6 *. per_call r r.total_s)
        (1e6 *. r.p50_s) (1e6 *. r.p95_s) (1e6 *. r.p99_s) (1e6 *. r.max_s)
        (per_call r r.minor_words))
    rows;
  Format.fprintf ppf "@]"
