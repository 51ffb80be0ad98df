open! Import

type outcome = {
  reached : int;
  transmissions : int;
  duplicates : int;
  bits : float;
}

let flood g flooders (u : Update.t) =
  let reached = ref 0 in
  let transmissions = ref 0 in
  let duplicates = ref 0 in
  let queue = Queue.create () in
  (* Injection at the origin: no arrival link. *)
  Queue.add (None, Node.to_int u.origin) queue;
  while not (Queue.is_empty queue) do
    let arrived_on, node = Queue.pop queue in
    match Flooder.receive flooders.(node) ~arrived_on u with
    | Flooder.Duplicate -> incr duplicates
    | Flooder.Fresh forward ->
      incr reached;
      List.iter
        (fun lid ->
          incr transmissions;
          let dst = (Graph.link g lid).Link.dst in
          Queue.add (Some lid, Node.to_int dst) queue)
        forward
  done;
  { reached = !reached;
    transmissions = !transmissions;
    duplicates = !duplicates;
    bits = float_of_int !transmissions *. Update.size_bits u }

(* Label each connected component with one DFS over the CSR out-links
   (every link has a reverse, so following out-links alone finds the whole
   component), summing its nodes and simplex links on the way. *)
let instant_transmissions g =
  let n = Graph.node_count g in
  let off = Graph.csr_out_off g and dst = Graph.csr_out_dst g in
  let comp = Array.make n (-1) in
  let per_comp = Array.make n 0 in
  let stack = Array.make n 0 in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      comp.(s) <- s;
      stack.(0) <- s;
      let top = ref 1 and nodes = ref 0 and links = ref 0 in
      while !top > 0 do
        decr top;
        let u = stack.(!top) in
        incr nodes;
        links := !links + off.(u + 1) - off.(u);
        for k = off.(u) to off.(u + 1) - 1 do
          let v = dst.(k) in
          if comp.(v) < 0 then begin
            comp.(v) <- s;
            stack.(!top) <- v;
            incr top
          end
        done
      done;
      per_comp.(s) <- !links - !nodes + 1
    end
  done;
  Array.map (fun c -> per_comp.(c)) comp

let instant_bits flood_tx ~link_src ~changed_ids ~count =
  let bits = ref 0 and k = ref 0 in
  while !k < count do
    let stop = Update.run_end ~link_src ~changed_ids ~count !k in
    bits :=
      !bits
      + (flood_tx.(link_src.(changed_ids.(!k)))
        * Update.wire_bits ~links:(stop - !k));
    k := stop
  done;
  !bits
[@@hot_path]
