open! Import

type report = {
  offered_load : float;
  equilibrium_cost_hops : float;
  equilibrium_utilization : float;
  raw_gain : float;
  effective_gain : float;
  stable : bool;
}

(* Continuous metric map in hops (no integer rounding): mirrors
   Metric_map but keeps the float so the derivative is meaningful. *)
let hnm_cost_hops params (link : Link.t) u =
  let raw = Hnm_params.raw_cost params ~utilization:u in
  let min_cost = float_of_int (Hnm_params.min_cost_of params link) in
  let max_cost = float_of_int params.Hnm_params.max_cost in
  Float.max min_cost (Float.min max_cost raw) /. min_cost

let continuous_cost_hops kind (link : Link.t) u =
  match kind with
  | Metric.Min_hop | Metric.Static_capacity -> 1.
  | Metric.D_spf ->
    let delay = Queueing.delay_s link ~utilization:u in
    let bias = float_of_int (Dspf.bias link.Link.line_type) in
    let units = Float.max bias (delay *. 1000. /. Units.unit_ms) in
    Float.min (float_of_int Units.max_cost) units /. bias
  | Metric.Hn_spf ->
    hnm_cost_hops (Hnm_params.for_line_type link.Link.line_type) link u

(* One iteration of the routing loop under an arbitrary continuous
   cost-in-hops map: reported cost to shed traffic to new cost. *)
let iterate_fn cost_hops response ~offered_load x =
  let u = offered_load *. Response_map.traffic_at response x in
  cost_hops (Float.max 0. (Float.min 0.99 u))

(* Continuous fixed point by bisection on f(x) = iterate(x) - x (strictly
   decreasing, as in Fixed_point). *)
let continuous_equilibrium_fn cost_hops response ~offered_load =
  let f x = iterate_fn cost_hops response ~offered_load x -. x in
  let lo = ref 0.25 and hi = ref 16. in
  for _ = 1 to 80 do
    let mid = (!lo +. !hi) /. 2. in
    if f mid > 0. then lo := mid else hi := mid
  done;
  (!lo +. !hi) /. 2.

let static_report response ~offered_load =
  { offered_load;
    equilibrium_cost_hops = 1.;
    equilibrium_utilization =
      offered_load *. Response_map.traffic_at response 1.;
    raw_gain = 0.;
    effective_gain = 0.;
    stable = true }

(* [effective] maps the raw loop slope to the dominant eigenvalue
   magnitude of the metric's own dynamics (identity magnitude for an
   unfiltered metric, |0.5 + 0.5 g| under the HNM averaging filter). *)
let analyze_fn ~effective cost_hops response ~offered_load =
  let x = continuous_equilibrium_fn cost_hops response ~offered_load in
  let u = offered_load *. Response_map.traffic_at response x in
  let raw_gain =
    let h = 0.05 in
    let f v = iterate_fn cost_hops response ~offered_load v in
    (f (x +. h) -. f (x -. h)) /. (2. *. h)
  in
  let effective_gain = effective raw_gain in
  { offered_load;
    equilibrium_cost_hops = x;
    equilibrium_utilization = u;
    raw_gain;
    effective_gain;
    stable = effective_gain < 1. }

(* The loop state is the filtered average: avg' = 0.5 sample + 0.5 avg,
   and the sample responds to the cost computed from avg, so the
   eigenvalue is 0.5 + 0.5 g. *)
let filtered_eigenvalue g = Float.abs (0.5 +. (0.5 *. g))

let analyze kind link response ~offered_load =
  match kind with
  | Metric.Min_hop | Metric.Static_capacity -> static_report response ~offered_load
  | Metric.D_spf ->
    analyze_fn ~effective:Float.abs
      (continuous_cost_hops kind link)
      response ~offered_load
  | Metric.Hn_spf ->
    analyze_fn ~effective:filtered_eigenvalue
      (continuous_cost_hops kind link)
      response ~offered_load

let analyze_hnm ?(averaging = true) params link response ~offered_load =
  let effective = if averaging then filtered_eigenvalue else Float.abs in
  analyze_fn ~effective (hnm_cost_hops params link) response ~offered_load
