type clock = unit -> float

let untimed () = 0.

let wall = Unix.gettimeofday

type cell = {
  mutable count : int;
  mutable total_s : float;
  mutable max_s : float;
  q50 : Routing_stats.Quantile.t;
  q95 : Routing_stats.Quantile.t;
  q99 : Routing_stats.Quantile.t;
}

type t = {
  clock : clock;
  cells : (string, cell) Hashtbl.t;
}

let create ?(clock = untimed) () = { clock; cells = Hashtbl.create 16 }

let cell t name =
  match Hashtbl.find_opt t.cells name with
  | Some c -> c
  | None ->
    let c =
      { count = 0;
        total_s = 0.;
        max_s = 0.;
        q50 = Routing_stats.Quantile.create 0.50;
        q95 = Routing_stats.Quantile.create 0.95;
        q99 = Routing_stats.Quantile.create 0.99 }
    in
    Hashtbl.add t.cells name c;
    c

let observe c elapsed =
  c.count <- c.count + 1;
  c.total_s <- c.total_s +. elapsed;
  if elapsed > c.max_s then c.max_s <- elapsed;
  Routing_stats.Quantile.add c.q50 elapsed;
  Routing_stats.Quantile.add c.q95 elapsed;
  Routing_stats.Quantile.add c.q99 elapsed

let clock_now t = t.clock ()

let record t ~name ~started = observe (cell t name) (clock_now t -. started)

type row = {
  name : string;
  count : int;
  total_s : float;
  max_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
}

let quantile_or_zero q =
  let v = Routing_stats.Quantile.value q in
  if Float.is_nan v then 0. else v

let report t =
  Hashtbl.fold
    (fun name (c : cell) acc ->
      { name;
        count = c.count;
        total_s = c.total_s;
        max_s = c.max_s;
        p50_s = quantile_or_zero c.q50;
        p95_s = quantile_or_zero c.q95;
        p99_s = quantile_or_zero c.q99 }
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
             ("p99_s", Json.Float r.p99_s) ])
       (report t))

let pp ppf t =
  let rows =
    List.sort (fun a b -> compare b.total_s a.total_s) (report t)
  in
  Format.fprintf ppf "@[<v>%-24s %10s %12s %12s %10s %10s %10s %12s@," "span"
    "count" "total ms" "mean us" "p50 us" "p95 us" "p99 us" "max us";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-24s %10d %12.2f %12.1f %10.1f %10.1f %10.1f %12.1f@," r.name r.count
        (1000. *. r.total_s)
        (if r.count > 0 then 1e6 *. r.total_s /. float_of_int r.count else 0.)
        (1e6 *. r.p50_s) (1e6 *. r.p95_s) (1e6 *. r.p99_s) (1e6 *. r.max_s))
    rows;
  Format.fprintf ppf "@]"
