open! Import

(* Destination-aggregated flow assignment.

   The historical hot path walked every flow's tree path individually:
   O(flows × path length) per period, with most links visited once per
   flow crossing them.  But all of a source's flows ride the *same* SPF
   tree, and a link's offered load is just the total demand of the subtree
   hanging off it.  So per source:

   + bucket the source's flow demands onto their destination nodes,
   + sweep the reached nodes leaves-inward (descending hop count — a
     counting sort, since a tree's depth is below its node count),
     adding each node's accumulated demand to its parent link and parent
     node.

   One pass over the flows plus one pass over the tree: O(V + E + F_s) per
   source instead of O(F_s × path length).  The same sweep run root-outward
   labels every node with its first-hop link, path delay and survival
   share, making the per-flow metrics pass O(1) per flow.

   Sources are independent up to the shared [offered] sums, so the pass
   also parallelizes: stripes of consecutive sources run on pool domains,
   each recording its (link, load) contributions into a per-stripe stream
   in sweep order instead of summing into [offered] directly.  Replaying
   the streams in stripe order afterwards performs the float additions in
   exactly the sequential source order, so the parallel path is
   bit-identical to the sequential one at any domain count.  The metrics
   pass stripes the same way and needs no replay at all: every write is
   to a slot of a flow of the stripe's own sources.

   Everything here writes into caller- or self-owned scratch sized once
   (the parallel path's streams for the most a stripe can push), so
   steady-state periods allocate nothing on either path. *)

(* Sources per parallel work item: big enough to amortize handout
   overhead, small enough that a 200-node graph still yields a dozen
   stealable stripes. *)
let stripe_width = 16

(* Per-node sweep scratch.  The sequential path owns one; the parallel
   paths hold one per participant slot, which at most one domain holds
   per loop, so slot-indexed scratch is race-free (see
   [Domain_pool.parallel_for]). *)
type scratch = {
  p_acc : float array; (* pending subtree demand; all-zero between sweeps *)
  p_order : int array; (* reached nodes, ascending hop count *)
  p_bucket : int array; (* counting-sort buckets; all-zero between sorts *)
  p_first_link : int array; (* first link on the root's path to the node *)
  p_delay_to : float array; (* summed link delay from the root *)
  p_share_to : float array; (* product of link pass-probabilities *)
}

let new_scratch n =
  { p_acc = Array.make n 0.;
    p_order = Array.make n 0;
    p_bucket = Array.make (n + 1) 0; (* hop counts 0 .. n - 1, shifted *)
    p_first_link = Array.make n (-1);
    p_delay_to = Array.make n 0.;
    p_share_to = Array.make n 0. }

(* Per-stripe contribution stream: (link, load) pushes recorded in sweep
   order, replayed in stripe order for bit-identity with the sequential
   pass. *)
type stream = {
  mutable q_link : int array;
  mutable q_val : float array;
  mutable q_len : int;
}

(* A stripe's sweeps push at most one contribution per reached non-root
   node per source, so [stripe_width * n] entries always suffice and a
   stream sized that way never grows. *)
let new_stream ~capacity =
  { q_link = Array.make capacity 0; q_val = Array.make capacity 0.; q_len = 0 }

(* Out of line so the push fast path stays allocation-free; a stream
   sized by [new_stream] never gets here. *)
let[@inline never] grow_stream st =
  let cap = Array.length st.q_link in
  let cap' = if cap = 0 then 256 else 2 * cap in
  let link = Array.make cap' 0 and value = Array.make cap' 0. in
  Array.blit st.q_link 0 link 0 st.q_len;
  Array.blit st.q_val 0 value 0 st.q_len;
  st.q_link <- link;
  st.q_val <- value

let[@inline] push st p a =
  if st.q_len = Array.length st.q_link then grow_stream st;
  st.q_link.(st.q_len) <- p;
  st.q_val.(st.q_len) <- a;
  st.q_len <- st.q_len + 1

type t = {
  graph : Graph.t;
  n : int; (* nodes *)
  (* CSR-style grouping of flow indices by source node, keyed on the
     store's identity and version (appends bump the version; throttle
     writes don't). *)
  mutable grouped : Flow_store.t option;
  mutable grouped_version : int;
  by_src_off : int array; (* n + 1 *)
  mutable by_src_flow : int array;
  lsrc : int array; (* per link: its source node, denormalized from the graph *)
  seq : scratch; (* sequential-path sweep scratch *)
  (* parallel-path scratch, sized by [reserve_parallel] and reused *)
  mutable pscratch : scratch array; (* one slot per pool participant *)
  mutable streams : stream array; (* one per source stripe *)
}

let create graph =
  let n = Graph.node_count graph in
  { graph;
    n;
    grouped = None;
    grouped_version = -1;
    by_src_off = Array.make (n + 1) 0;
    by_src_flow = [||];
    lsrc =
      Array.init (Graph.link_count graph) (fun i ->
          Node.to_int (Graph.link graph (Link.id_of_int i)).Link.src);
    seq = new_scratch n;
    pscratch = [||];
    streams = [||] }

(* Rebuild the by-source grouping (counting sort on source ids, stable in
   flow order).  Keyed on (store identity, store version): Flow_sim swaps
   the store when traffic changes and appends bump the version, while
   per-period throttle writes leave the grouping valid. *)
let group t store =
  let version = Flow_store.version store in
  let cached =
    match t.grouped with
    | Some s -> s == store && t.grouped_version = version
    | None -> false
  in
  if not cached then begin
    let nf = Flow_store.length store in
    let src = Flow_store.src_col store in
    if Array.length t.by_src_flow < nf then t.by_src_flow <- Array.make nf 0;
    let off = t.by_src_off in
    Array.fill off 0 (t.n + 1) 0;
    for fi = 0 to nf - 1 do
      off.(src.(fi) + 1) <- off.(src.(fi) + 1) + 1
    done;
    for s = 1 to t.n do
      off.(s) <- off.(s) + off.(s - 1)
    done;
    (* [order] doubles as the per-source cursor during placement. *)
    let cursor = t.seq.p_order in
    Array.blit off 0 cursor 0 t.n;
    for fi = 0 to nf - 1 do
      let s = src.(fi) in
      t.by_src_flow.(cursor.(s)) <- fi;
      cursor.(s) <- cursor.(s) + 1
    done;
    t.grouped <- Some store;
    t.grouped_version <- version
  end

(* Fill [order.(0 .. m-1)] with the tree's reached nodes in ascending hop
   count (ties: ascending node id) and return [m].  Counting sort: hop
   counts are below the node count, but real trees are much
   shallower, so the sort only touches buckets up to the deepest hop seen
   — [bucket] is kept all-zero between calls instead of cleared up front,
   which would cost more than the sort itself on mid-sized graphs.
   Toplevel over explicit scratch so the sequential path and every
   parallel participant share one kernel. *)
let sort_reached_into tree ~n ~bucket ~order =
  let max_h = ref 0 in
  for i = 0 to n - 1 do
    if Spf_tree.reached_i tree i then begin
      let h = Spf_tree.hops_i tree i in
      if h > !max_h then max_h := h;
      bucket.(h + 1) <- bucket.(h + 1) + 1
    end
  done;
  let max_h = !max_h in
  for h = 1 to max_h + 1 do
    bucket.(h) <- bucket.(h) + bucket.(h - 1)
  done;
  let m = bucket.(max_h + 1) in
  for i = 0 to n - 1 do
    if Spf_tree.reached_i tree i then begin
      let h = Spf_tree.hops_i tree i in
      order.(bucket.(h)) <- i;
      bucket.(h) <- bucket.(h) + 1
    end
  done;
  Array.fill bucket 0 (max_h + 2) 0;
  m
[@@hot_path]

let assign_seq t ~dst ~tree_for ~sending ~offered ~first_hop =
  let off = t.by_src_off in
  let scr = t.seq in
  let acc = scr.p_acc
  and order = scr.p_order
  and bucket = scr.p_bucket
  and first_link = scr.p_first_link in
  for s = 0 to t.n - 1 do
    if off.(s) < off.(s + 1) then begin
      let tree = tree_for (Node.of_int s) in
      (* Bucket demands onto destinations. *)
      for k = off.(s) to off.(s + 1) - 1 do
        let fi = t.by_src_flow.(k) in
        let d = dst.(fi) in
        if Spf_tree.reached_i tree d then acc.(d) <- acc.(d) +. sending.(fi)
      done;
      let m = sort_reached_into tree ~n:t.n ~bucket ~order in
      (* Root outward: label nodes with their first-hop link. *)
      for k = 0 to m - 1 do
        let v = order.(k) in
        let p = Spf_tree.parent_id tree v in
        first_link.(v) <-
          (if p < 0 then -1
           else begin
             let u = t.lsrc.(p) in
             if first_link.(u) < 0 then p else first_link.(u)
           end)
      done;
      (* Leaves inward: push accumulated subtree demand across parent
         links.  Zeroing as we go leaves [acc] clean for the next source. *)
      for k = m - 1 downto 0 do
        let v = order.(k) in
        let a = acc.(v) in
        if a <> 0. then begin
          acc.(v) <- 0.;
          let p = Spf_tree.parent_id tree v in
          if p >= 0 then begin
            offered.(p) <- offered.(p) +. a;
            let u = t.lsrc.(p) in
            acc.(u) <- acc.(u) +. a
          end
        end
      done;
      for k = off.(s) to off.(s + 1) - 1 do
        let fi = t.by_src_flow.(k) in
        let d = dst.(fi) in
        first_hop.(fi) <-
          (if Spf_tree.reached_i tree d then first_link.(d) else -2)
      done
    end
  done
[@@hot_path]

(* One stripe of consecutive sources, identical sweep to [assign_seq]
   except that offered-load contributions go into the stripe's stream
   (in sweep order) instead of the shared [offered] array.  [first_hop]
   writes are per-flow and flows belong to exactly one source, so those
   target disjoint indices across stripes.  Toplevel kernel: the closure
   handed to the pool only calls this, so it captures no mutable state
   the domain-safety lint needs to reason about. *)
let run_stripe t ~scr ~st ~dst ~tree_for ~sending ~first_hop ~s_lo ~s_hi =
  st.q_len <- 0;
  let off = t.by_src_off in
  let acc = scr.p_acc
  and order = scr.p_order
  and bucket = scr.p_bucket
  and first_link = scr.p_first_link in
  for s = s_lo to s_hi - 1 do
    if off.(s) < off.(s + 1) then begin
      let tree = tree_for (Node.of_int s) in
      for k = off.(s) to off.(s + 1) - 1 do
        let fi = t.by_src_flow.(k) in
        let d = dst.(fi) in
        if Spf_tree.reached_i tree d then acc.(d) <- acc.(d) +. sending.(fi)
      done;
      let m = sort_reached_into tree ~n:t.n ~bucket ~order in
      for k = 0 to m - 1 do
        let v = order.(k) in
        let p = Spf_tree.parent_id tree v in
        first_link.(v) <-
          (if p < 0 then -1
           else begin
             let u = t.lsrc.(p) in
             if first_link.(u) < 0 then p else first_link.(u)
           end)
      done;
      for k = m - 1 downto 0 do
        let v = order.(k) in
        let a = acc.(v) in
        if a <> 0. then begin
          acc.(v) <- 0.;
          let p = Spf_tree.parent_id tree v in
          if p >= 0 then begin
            push st p a;
            let u = t.lsrc.(p) in
            acc.(u) <- acc.(u) +. a
          end
        end
      done;
      for k = off.(s) to off.(s + 1) - 1 do
        let fi = t.by_src_flow.(k) in
        let d = dst.(fi) in
        first_hop.(fi) <-
          (if Spf_tree.reached_i tree d then first_link.(d) else -2)
      done
    end
  done
[@@hot_path]

(* Stripe order = ascending source order, and within a stripe pushes were
   recorded in sweep order, so these additions replay the sequential
   float-accumulation order exactly. *)
let replay_streams streams ~nstripes ~offered =
  for qi = 0 to nstripes - 1 do
    let st = streams.(qi) in
    let link = st.q_link and value = st.q_val in
    for j = 0 to st.q_len - 1 do
      let p = link.(j) in
      offered.(p) <- offered.(p) +. value.(j)
    done
  done
[@@hot_path]

let nstripes t = (t.n + stripe_width - 1) / stripe_width

let reserve_parallel t ~slots =
  if Array.length t.pscratch < slots then
    t.pscratch <- Array.init slots (fun _ -> new_scratch t.n);
  let nstripes = nstripes t in
  if Array.length t.streams < nstripes then
    t.streams <-
      Array.init nstripes (fun _ ->
          new_stream ~capacity:(stripe_width * t.n))

let assign_parallel t pool ~dst ~tree_for ~sending ~first_hop ~offered =
  reserve_parallel t ~slots:(Domain_pool.size pool);
  let nstripes = nstripes t in
  let pscratch = t.pscratch and streams = t.streams in
  Domain_pool.parallel_for pool
    ~init:(fun me -> pscratch.(me))
    nstripes
    (fun scr qi ->
      let s_lo = qi * stripe_width in
      let s_hi = min t.n (s_lo + stripe_width) in
      run_stripe t ~scr ~st:streams.(qi) ~dst ~tree_for ~sending ~first_hop
        ~s_lo ~s_hi);
  replay_streams streams ~nstripes ~offered

let assign ?pool t ~flows ~tree_for ~sending ~offered ~first_hop =
  group t flows;
  let dst = Flow_store.dst_col flows in
  match pool with
  | Some pool when Domain_pool.size pool > 1 && t.n > 1 ->
    assign_parallel t pool ~dst ~tree_for ~sending ~first_hop ~offered
  | _ -> assign_seq t ~dst ~tree_for ~sending ~offered ~first_hop

(* Per-flow path totals for the sources in [s_lo, s_hi): the same
   root-outward sweep as [assign] labels every reached node with its path
   delay and survival share, and each flow reads its destination's label.
   Results land in caller-owned struct-of-arrays slots (a callback's
   boxed float arguments would allocate), so the simulator's per-period
   metrics pass allocates nothing.  [hops.(fi) < 0] marks an unreached
   flow.  One toplevel kernel serves the sequential call (all sources)
   and every parallel stripe. *)
let metrics_stripe t ~scr ~dst ~tree_for ~link_delay ~link_pass ~delay_s
    ~share ~hops ~s_lo ~s_hi =
  let off = t.by_src_off in
  let order = scr.p_order
  and bucket = scr.p_bucket
  and delay_to = scr.p_delay_to
  and share_to = scr.p_share_to in
  for s = s_lo to s_hi - 1 do
    if off.(s) < off.(s + 1) then begin
      let tree = tree_for (Node.of_int s) in
      let m = sort_reached_into tree ~n:t.n ~bucket ~order in
      (* Root outward: delay is additive, survival multiplicative. *)
      for k = 0 to m - 1 do
        let v = order.(k) in
        let p = Spf_tree.parent_id tree v in
        if p < 0 then begin
          delay_to.(v) <- 0.;
          share_to.(v) <- 1.
        end
        else begin
          let u = t.lsrc.(p) in
          delay_to.(v) <- delay_to.(u) +. link_delay.(p);
          share_to.(v) <- share_to.(u) *. link_pass.(p)
        end
      done;
      for k = off.(s) to off.(s + 1) - 1 do
        let fi = t.by_src_flow.(k) in
        let d = dst.(fi) in
        if Spf_tree.reached_i tree d then begin
          delay_s.(fi) <- delay_to.(d);
          share.(fi) <- share_to.(d);
          hops.(fi) <- Spf_tree.hops_i tree d
        end
        else begin
          delay_s.(fi) <- 0.;
          share.(fi) <- 0.;
          hops.(fi) <- -1
        end
      done
    end
  done
[@@hot_path]

(* Each flow belongs to one source, so stripes write disjoint per-flow
   slots and the parallel result needs no replay to equal the sequential
   one bit for bit. *)
let metrics_into ?pool t ~flows ~tree_for ~link_delay ~link_pass ~delay_s
    ~share ~hops =
  group t flows;
  let dst = Flow_store.dst_col flows in
  match pool with
  | Some pool when Domain_pool.size pool > 1 && t.n > 1 ->
    reserve_parallel t ~slots:(Domain_pool.size pool);
    let pscratch = t.pscratch in
    Domain_pool.parallel_for pool
      ~init:(fun me -> pscratch.(me))
      (nstripes t)
      (fun scr qi ->
        let s_lo = qi * stripe_width in
        let s_hi = min t.n (s_lo + stripe_width) in
        metrics_stripe t ~scr ~dst ~tree_for ~link_delay ~link_pass ~delay_s
          ~share ~hops ~s_lo ~s_hi)
  | _ ->
    metrics_stripe t ~scr:t.seq ~dst ~tree_for ~link_delay ~link_pass
      ~delay_s ~share ~hops ~s_lo:0 ~s_hi:t.n

(* The historical per-flow tree climb, kept as the reference the qcheck
   property and the benchmark compare the aggregated path against.  It
   reproduces the access pattern the aggregated sweep replaced, including
   the per-hop graph record lookups the old path iterator performed — not
   the denormalized [lsrc] table, which belongs to the new design. *)
let assign_baseline t ~flows ~tree_for ~sending ~offered ~first_hop =
  let src = Flow_store.src_col flows and dst = Flow_store.dst_col flows in
  let link_src p = Node.to_int (Graph.link t.graph (Link.id_of_int p)).Link.src in
  for fi = 0 to Flow_store.length flows - 1 do
    let tree = tree_for (Node.of_int src.(fi)) in
    let d = dst.(fi) in
    if Spf_tree.reached_i tree d then begin
      let fh = ref (-1) in
      let v = ref d in
      let p = ref (Spf_tree.parent_id tree !v) in
      while !p >= 0 do
        offered.(!p) <- offered.(!p) +. sending.(fi);
        (* climbing destination-to-source: the last link seen leaves the
           source *)
        fh := !p;
        v := link_src !p;
        p := Spf_tree.parent_id tree !v
      done;
      first_hop.(fi) <- !fh
    end
    else first_hop.(fi) <- -2
  done
