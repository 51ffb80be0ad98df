open! Import

(* Newest accepted sequence number per origin as a plain int, -1 before
   the first: accepting an update stores an int, not a fresh [Some]. *)
type t = {
  graph : Graph.t;
  owner : Node.t;
  newest : int array; (* per origin node *)
  mutable own_seq : Sequence.t;
}

let create graph ~owner =
  { graph;
    owner;
    newest = Array.make (Graph.node_count graph) (-1);
    own_seq = Sequence.zero }

let owner t = t.owner

let is_fresh t (u : Update.t) =
  let seen = t.newest.(Node.to_int u.origin) in
  seen < 0 || Sequence.newer u.seq (Sequence.of_int seen)

let note_seen t (u : Update.t) =
  t.newest.(Node.to_int u.origin) <- Sequence.to_int u.seq

let originate t ~costs =
  t.own_seq <- Sequence.next t.own_seq;
  let u = { Update.origin = t.owner; seq = t.own_seq; costs } in
  note_seen t u;
  u

let accept t u =
  if is_fresh t u then begin
    note_seen t u;
    true
  end
  else false

type verdict = Fresh of Link.id list | Duplicate

let receive t ~arrived_on (u : Update.t) =
  (* A local injection is always propagated: the originator has necessarily
     already recorded its own sequence number in [originate]. *)
  let fresh =
    match arrived_on with None -> (note_seen t u; true) | Some _ -> accept t u
  in
  if fresh then begin
    let forward =
      Graph.out_links t.graph t.owner
      |> List.filter_map (fun (l : Link.t) ->
             (* Never send an update back over the line it arrived on —
                the neighbour there has it by construction. *)
             let came_back =
               match arrived_on with
               | Some in_link ->
                 Link.id_equal (Graph.reverse t.graph l).Link.id in_link
               | None -> false
             in
             if came_back then None else Some l.Link.id)
    in
    Fresh forward
  end
  else Duplicate

let last_seq t origin =
  let seen = t.newest.(Node.to_int origin) in
  if seen < 0 then None else Some (Sequence.of_int seen)
