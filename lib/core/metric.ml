open! Import

type kind = Min_hop | Static_capacity | D_spf | Hn_spf

let kind_name = function
  | Min_hop -> "min-hop"
  | Static_capacity -> "static-capacity"
  | D_spf -> "D-SPF"
  | Hn_spf -> "HN-SPF"

let kind_of_name = function
  | "min-hop" | "minhop" -> Some Min_hop
  | "static-capacity" | "static" | "ospf" -> Some Static_capacity
  | "D-SPF" | "dspf" | "d-spf" -> Some D_spf
  | "HN-SPF" | "hnspf" | "hn-spf" -> Some Hn_spf
  | _ -> None

type link_state =
  | Static
  | Static_cost of int
  | Delay of Dspf.t * Significance.t
  | Hop_normalized of Hnm.t * Significance.t

type t = {
  kind : kind;
  graph : Graph.t;
  hnm_config : Link.t -> Hnm.config;  (* used by Hn_spf states *)
  states : link_state array;
  flooded : int array;  (* what the network believes, per link *)
  mutable updates : int;
  (* Batch-update machinery: per-link scratch plus parallel views of the
     HNM states' innards, so {!period_update_all} can run the measurement
     pipeline as staged array sweeps — each stage one cross-module call —
     instead of boxing floats on every link (dev builds compile interfaces
     -opaque, so [@inline] never crosses a module boundary). *)
  scratch_f : float array;
  scratch_i : int array;
  mutable hn_filters : Filter.ewma array;  (* Hn_spf only, else [||] *)
  mutable hn_params : Hnm_params.t array;  (* Hn_spf only, else [||] *)
}

let hnm_significance config h =
  Significance.create
    (Significance.Fixed config.Hnm.params.Hnm_params.min_change)
    ~initial_cost:(Hnm.current_cost h)

let make_state kind hnm_config link =
  match kind with
  | Min_hop -> Static
  | Static_capacity -> Static_cost (Hnm_params.min_cost link)
  | D_spf ->
    let d = Dspf.create link in
    Delay (d, Significance.create Significance.dspf_policy
             ~initial_cost:(Dspf.current_cost d))
  | Hn_spf ->
    let config = hnm_config link in
    let h = Hnm.create_custom config link in
    Hop_normalized (h, hnm_significance config h)

let initial_cost = function
  | Static -> 1
  | Static_cost c -> c
  | Delay (d, _) -> Dspf.current_cost d
  | Hop_normalized (h, _) -> Hnm.current_cost h

(* (Re)build the parallel views the batch update path sweeps over; called
   after any [states.(i)] replacement (creation, link restoration). *)
let refresh_batch_views t =
  match t.kind with
  | Min_hop | Static_capacity | D_spf -> ()
  | Hn_spf ->
    t.hn_filters <-
      Array.map
        (function
          | Hop_normalized (h, _) -> Hnm.average_filter h
          | _ -> assert false)
        t.states;
    t.hn_params <-
      Array.map
        (function Hop_normalized (h, _) -> Hnm.params h | _ -> assert false)
        t.states

let make kind hnm_config graph states =
  let t =
    { kind;
      graph;
      hnm_config;
      states;
      flooded = Array.map initial_cost states;
      updates = 0;
      scratch_f = Array.make (Array.length states) 0.;
      scratch_i = Array.make (Array.length states) 0;
      hn_filters = [||];
      hn_params = [||] }
  in
  refresh_batch_views t;
  t

let create_custom_hnspf hnm_config graph =
  make Hn_spf hnm_config graph
    (Array.init (Graph.link_count graph) (fun i ->
         make_state Hn_spf hnm_config (Graph.link graph (Link.id_of_int i))))

let create kind graph =
  let hnm_config (link : Link.t) = Hnm.default_config link.Link.line_type in
  make kind hnm_config graph
    (Array.init (Graph.link_count graph) (fun i ->
         make_state kind hnm_config (Graph.link graph (Link.id_of_int i))))

let kind t = t.kind

let graph t = t.graph

let cost t lid = t.flooded.(Link.id_to_int lid)

let local_cost t lid =
  match t.states.(Link.id_to_int lid) with
  | Static -> 1
  | Static_cost c -> c
  | Delay (d, _) -> Dspf.current_cost d
  | Hop_normalized (h, _) -> Hnm.current_cost h

let cost_fn t lid = cost t lid

let flood t lid c =
  t.flooded.(Link.id_to_int lid) <- c;
  t.updates <- t.updates + 1

(* Finish link [i]'s period from its staged input in [scratch_i] (D-SPF
   delay units, or the HNM raw cost): the bias floor or movement limits,
   then the significance test.  The cost to flood, or -1 for none. *)
let finish_link t i =
  let staged = t.scratch_i.(i) in
  match t.states.(i) with
  | Static | Static_cost _ -> -1
  | Delay (d, sig_state) ->
    let c = Dspf.apply_units d ~units:staged in
    if Significance.consider sig_state ~cost:c then c else -1
  | Hop_normalized (h, sig_state) ->
    let c = Hnm.apply_raw h ~raw:staged in
    if Significance.consider sig_state ~cost:c then c else -1

(* One call per period.  The measurement pipeline runs as staged array
   sweeps — delay→utilization in {!Queueing}, smoothing in {!Filter}, the
   linear transform in {!Hnm_params} — so every float stays inside the
   module that computes it; the per-link finish crosses module boundaries
   with integers only, origin by origin in CSR order, so the flooded links
   come out grouped into their updates.  A quiet period allocates
   nothing. *)
let period_update_all t ~up ~link_delay_s ~changed_ids ~changed_costs =
  (match t.kind with
  | Min_hop | Static_capacity -> ()
  | D_spf -> Units.of_delay_into ~up ~delay_s:link_delay_s ~units:t.scratch_i
  | Hn_spf ->
    Queueing.utilization_of_delay_into t.graph ~up ~delay_s:link_delay_s
      ~utilization:t.scratch_f;
    Filter.ewma_update_into t.hn_filters ~mask:up ~values:t.scratch_f;
    Hnm_params.raw_costs_into t.hn_params ~up ~utilization:t.scratch_f
      ~raw:t.scratch_i);
  let ids = Graph.csr_out_link_ids t.graph in
  let count = ref 0 in
  for k = 0 to Array.length ids - 1 do
    let i = ids.(k) in
    if up.(i) then begin
      let c = finish_link t i in
      if c >= 0 then begin
        flood t (Link.id_of_int i) c;
        changed_ids.(!count) <- i;
        changed_costs.(!count) <- c;
        incr count
      end
    end
  done;
  !count
[@@hot_path]

let link_up t lid =
  let link = Graph.link t.graph lid in
  let i = Link.id_to_int lid in
  (match t.kind with
  | Min_hop -> ()
  | Static_capacity ->
    flood t lid t.flooded.(i) (* cost unchanged; announce reachability *)
  | D_spf ->
    let d = Dspf.create link in
    let c = Dspf.current_cost d in
    let s = Significance.create Significance.dspf_policy ~initial_cost:c in
    t.states.(i) <- Delay (d, s);
    flood t lid c
  | Hn_spf ->
    let config = t.hnm_config link in
    let h = Hnm.create_custom_easing_in config link in
    let c = Hnm.current_cost h in
    t.states.(i) <- Hop_normalized (h, hnm_significance config h);
    refresh_batch_views t;
    flood t lid c)

let updates_flooded t = t.updates

let reset_update_counter t = t.updates <- 0

let idle_cost kind link =
  match kind with
  | Min_hop -> 1
  | Static_capacity -> Hnm_params.min_cost link
  | D_spf -> Dspf.current_cost (Dspf.create link)
  | Hn_spf -> Hnm.current_cost (Hnm.create link)

let equilibrium_cost kind link ~utilization =
  match kind with
  | Min_hop -> 1
  | Static_capacity -> Hnm_params.min_cost link
  | D_spf -> Dspf.cost_of_utilization link ~utilization
  | Hn_spf -> Hnm.cost_of_utilization link ~utilization
