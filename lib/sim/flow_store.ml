open! Import

(* Struct-of-arrays flow store.

   A million-flow period cannot afford one boxed record per flow: the
   historical {src; dst; demand_bps} array costs three words of header
   and a pointer chase per flow, and the float is boxed.  Here each
   attribute lives in its own flat column — int arrays for endpoints,
   unboxed float arrays for demand and the per-flow AIMD throttle — so
   the assignment and adaptation passes stream through contiguous
   memory.

   Columns are replaced wholesale when the store grows; [version] is
   bumped by every structural change (append, growth) so consumers that
   cache derived state (Load_assign's by-source grouping) can key their
   cache on [(t, version t)] instead of array identity.  Mutating
   [throttle] is not structural — it never changes the grouping. *)

type t = {
  n_nodes : int;
  mutable len : int;
  mutable src : int array;
  mutable dst : int array;
  mutable demand_bps : float array;
  mutable throttle : float array; (* per-flow AIMD send fraction, 1 = open *)
  mutable version : int;
}

let create ~nodes =
  if nodes < 0 then invalid_arg "Flow_store.create";
  { n_nodes = nodes;
    len = 0;
    src = [||];
    dst = [||];
    demand_bps = [||];
    throttle = [||];
    version = 0 }

let nodes t = t.n_nodes

let length t = t.len

let version t = t.version

let src_col t = t.src

let dst_col t = t.dst

let demand_col t = t.demand_bps

let throttle_col t = t.throttle

(* Doubling growth, off the hot path: stores are built once per traffic
   change, and steady-state periods never append. *)
let grow t =
  let cap = Array.length t.src in
  let cap' = if cap = 0 then 1024 else 2 * cap in
  let src = Array.make cap' 0
  and dst = Array.make cap' 0
  and demand = Array.make cap' 0.
  and throttle = Array.make cap' 1. in
  Array.blit t.src 0 src 0 t.len;
  Array.blit t.dst 0 dst 0 t.len;
  Array.blit t.demand_bps 0 demand 0 t.len;
  Array.blit t.throttle 0 throttle 0 t.len;
  t.src <- src;
  t.dst <- dst;
  t.demand_bps <- demand;
  t.throttle <- throttle

let add t ~src ~dst ~demand_bps =
  let s = Node.to_int src and d = Node.to_int dst in
  if s < 0 || s >= t.n_nodes || d < 0 || d >= t.n_nodes then
    invalid_arg "Flow_store.add: endpoint outside the node range";
  if t.len = Array.length t.src then grow t;
  t.src.(t.len) <- s;
  t.dst.(t.len) <- d;
  t.demand_bps.(t.len) <- demand_bps;
  t.throttle.(t.len) <- 1.;
  t.len <- t.len + 1;
  t.version <- t.version + 1

let reset_throttle t = Array.fill t.throttle 0 t.len 1.

let total_demand_bps t =
  let s = ref 0. in
  for fi = 0 to t.len - 1 do
    s := !s +. t.demand_bps.(fi)
  done;
  !s

(* Same flow order as the historical [Flow_sim.flows_of_matrix]:
   [Traffic_matrix.flows] lists nonzero entries row-major.  The store
   adopts its exact-size columns; [version] reads as if each flow had
   been appended. *)
let of_matrix tm =
  let src, dst, demand_bps = Traffic_matrix.flows tm in
  let len = Array.length src in
  { n_nodes = Traffic_matrix.nodes tm;
    len;
    src;
    dst;
    demand_bps;
    throttle = Array.make len 1.;
    version = len }

let to_matrix t =
  let tm = Traffic_matrix.create ~nodes:t.n_nodes in
  for fi = 0 to t.len - 1 do
    Traffic_matrix.add tm ~src:(Node.of_int t.src.(fi))
      ~dst:(Node.of_int t.dst.(fi)) t.demand_bps.(fi)
  done;
  tm

(* Merge flows sharing an ordered (src, dst) pair, keeping each pair's
   first-occurrence position — the matrix-level view of a host-level
   store.  Throttles restart at 1: an aggregate is a new traffic
   object, not a continuation of its parts' AIMD state. *)
let aggregate t =
  let out = create ~nodes:t.n_nodes in
  let slot = Hashtbl.create (max 16 (t.len / 4)) in
  for fi = 0 to t.len - 1 do
    let key = (t.src.(fi) * t.n_nodes) + t.dst.(fi) in
    match Hashtbl.find_opt slot key with
    | Some j -> out.demand_bps.(j) <- out.demand_bps.(j) +. t.demand_bps.(fi)
    | None ->
      Hashtbl.add slot key out.len;
      add out ~src:(Node.of_int t.src.(fi)) ~dst:(Node.of_int t.dst.(fi))
        ~demand_bps:t.demand_bps.(fi)
  done;
  out

(* ---------------------------------------------------------------- *)
(* Heavy-tailed host-level demand. *)

type size_dist = Pareto of { alpha : float } | Lognormal of { sigma : float }

(* Endpoint masses follow the gravity model's log-uniform decade (a few
   big hosts, many small); each flow picks src and dst independently by
   cumulative mass, rejecting self-pairs.  Sizes are Pareto or lognormal
   around 1, then one global scaling pins the total at [total_bps]
   exactly — so the aggregate load is controlled while the per-flow
   distribution keeps its tail.  Everything draws from [rng] in a fixed
   order: one seed, one store, bit for bit. *)
let heavy_tailed rng ~nodes ~flows ~total_bps ~size =
  if nodes < 2 then invalid_arg "Flow_store.heavy_tailed: need >= 2 nodes";
  if flows < 0 then invalid_arg "Flow_store.heavy_tailed: negative flows";
  if flows > 0 && total_bps > 0. then begin
    let cum = Array.make nodes 0. in
    let running = ref 0. in
    for i = 0 to nodes - 1 do
      running := !running +. (10. ** Rng.float rng 1.);
      cum.(i) <- !running
    done;
    let total_mass = !running in
    let draw_node () =
      let x = Rng.float rng total_mass in
      (* First node whose cumulative mass exceeds the draw. *)
      let lo = ref 0 and hi = ref (nodes - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) > x then hi := mid else lo := mid + 1
      done;
      !lo
    in
    let draw_size () =
      match size with
      | Pareto { alpha } -> Rng.pareto rng ~alpha ~x_min:1.
      | Lognormal { sigma } -> Rng.lognormal rng ~mu:0. ~sigma
    in
    (* Exact-size columns, written in place as [of_matrix] adopts them;
       [version] reads as if each flow had been appended. *)
    let src = Array.make flows 0
    and dst = Array.make flows 0
    and demand_bps = Array.create_float flows in
    for fi = 0 to flows - 1 do
      let s = draw_node () in
      let d = ref (draw_node ()) in
      while !d = s do
        d := draw_node ()
      done;
      src.(fi) <- s;
      dst.(fi) <- !d;
      demand_bps.(fi) <- draw_size ()
    done;
    let t =
      { n_nodes = nodes;
        len = flows;
        src;
        dst;
        demand_bps;
        throttle = Array.make flows 1.;
        version = flows }
    in
    let raw = total_demand_bps t in
    if raw > 0. then begin
      let factor = total_bps /. raw in
      for fi = 0 to t.len - 1 do
        t.demand_bps.(fi) <- t.demand_bps.(fi) *. factor
      done
    end;
    t
  end
  else create ~nodes
