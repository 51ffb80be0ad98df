(* Live terminal animation of the Fig 1 oscillation (requires a tty).

     dune exec examples/live_oscillation.exe

   Two regions, two 56 kb/s bridges, 74% combined offered load.  One
   routing period (10 simulated seconds) plays every 300 ms.  Keys:

     d / h / m / s   switch metric (D-SPF / HN-SPF / min-hop / static)
     space           pause / resume
     q               quit

   Watch D-SPF slam the full load between the bridges every period, then
   press 'h' and watch the HNM settle them into sharing within a few
   periods. *)

open Routing_topology
open Notty
module Term = Notty_unix.Term
module Flow_sim = Routing_sim.Flow_sim
module Metric = Routing_metric.Metric

type state = {
  mutable sim : Flow_sim.t;
  mutable kind : Metric.kind;
  mutable paused : bool;
  mutable history : (float * float) list; (* newest first, bridge utils *)
  graph : Graph.t;
  tm : Traffic_matrix.t;
  bridge_a : Link.id;
  bridge_b : Link.id;
}

let setup () =
  let graph, (bridge_a, bridge_b) = Generators.two_region () in
  let tm = Generators.two_region_traffic graph in
  { sim = Flow_sim.create graph Metric.D_spf tm;
    kind = Metric.D_spf;
    paused = false;
    history = [];
    graph;
    tm;
    bridge_a;
    bridge_b }

let bar w u =
  (* [w] not [width]: Notty.I exports a [width] function. *)
  let filled = int_of_float (Float.min 1.5 u /. 1.5 *. float_of_int w) in
  let color =
    if u > 1.0 then A.(fg red)
    else if u > 0.85 then A.(fg yellow)
    else A.(fg green)
  in
  I.(
    char color '#' (max 1 filled) 1
    <|> char A.(fg (gray 5)) '.' (max 1 (w - filled)) 1)

let render state =
  let bar_w = 40 in
  let header =
    I.(
      string A.(st bold) "Fig 1 live: two bridges, 74% offered load    "
      <-> string A.empty
            (Printf.sprintf "metric: %-8s   t = %4.0f s   %s"
               (Metric.kind_name state.kind)
               (Flow_sim.time_s state.sim)
               (if state.paused then "[paused]" else ""))
      <-> string A.(fg (gray 12)) "keys: d/h/m/s metric, space pause, q quit")
  in
  let rows =
    List.mapi
      (fun i (ua, ub) ->
        let age = A.(fg (gray (max 2 (12 - i)))) in
        I.(
          string age (Printf.sprintf "%3d " (-i))
          <|> bar bar_w ua
          <|> string A.empty (Printf.sprintf " %4.2f   " ua)
          <|> bar bar_w ub
          <|> string A.empty (Printf.sprintf " %4.2f" ub)))
      (match state.history with [] -> [ (0., 0.) ] | h -> h)
  in
  let legend =
    I.(
      string A.(st bold)
        (Printf.sprintf "%4s %-*s %7s %-*s" "" bar_w "bridge A" "" bar_w
           "bridge B"))
  in
  I.(header <-> void 0 1 <-> legend <-> vcat rows)

let step state =
  ignore (Flow_sim.step state.sim);
  let ua = Flow_sim.link_utilization state.sim state.bridge_a in
  let ub = Flow_sim.link_utilization state.sim state.bridge_b in
  state.history <- (ua, ub) :: state.history;
  if List.length state.history > 18 then
    state.history <-
      List.filteri (fun i _ -> i < 18) state.history

let switch state kind =
  state.kind <- kind;
  state.sim <- Flow_sim.create state.graph kind state.tm;
  state.history <- []

let () =
  let state = setup () in
  let term = Term.create () in
  let input, _ = Term.fds term in
  let rec loop () =
    Term.image term (render state);
    let readable, _, _ = Unix.select [ input ] [] [] 0.3 in
    match readable with
    | [] ->
      if not state.paused then step state;
      loop ()
    | _ -> (
      match Term.event term with
      | `Key (`ASCII 'q', _) | `Key (`Escape, _) -> ()
      | `Key (`ASCII 'd', _) ->
        switch state Metric.D_spf;
        loop ()
      | `Key (`ASCII 'h', _) ->
        switch state Metric.Hn_spf;
        loop ()
      | `Key (`ASCII 'm', _) ->
        switch state Metric.Min_hop;
        loop ()
      | `Key (`ASCII 's', _) ->
        switch state Metric.Static_capacity;
        loop ()
      | `Key (`ASCII ' ', _) ->
        state.paused <- not state.paused;
        loop ()
      | _ -> loop ())
  in
  loop ();
  Term.release term
