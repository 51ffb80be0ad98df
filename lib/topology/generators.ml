module Rng = Routing_stats.Rng

let node_name prefix i = Printf.sprintf "%s%d" prefix i

let two_region ?(region_size = 8) ?(bridge_type = Line_type.T56) () =
  if region_size < 2 then invalid_arg "Generators.two_region: region_size < 2";
  let b = Builder.create () in
  let add_region prefix =
    (* Ring plus a diameter chord: connected with alternate paths inside
       the region, so intra-region routing never depends on the bridges. *)
    for i = 0 to region_size - 1 do
      let j = (i + 1) mod region_size in
      ignore (Builder.trunk b Line_type.T56 (node_name prefix i) (node_name prefix j))
    done;
    if region_size >= 4 then
      ignore
        (Builder.trunk b Line_type.T56 (node_name prefix 0)
           (node_name prefix (region_size / 2)))
  in
  add_region "L";
  add_region "R";
  let bridge_a, _ = Builder.trunk b bridge_type "L0" "R0" in
  let bridge_b, _ = Builder.trunk b bridge_type "L1" "R1" in
  (Builder.build b, (bridge_a, bridge_b))

let two_region_traffic g =
  let tm = Traffic_matrix.create ~nodes:(Graph.node_count g) in
  Graph.iter_nodes g (fun src ->
      Graph.iter_nodes g (fun dst ->
          let sn = Graph.node_name g src and dn = Graph.node_name g dst in
          if sn.[0] = 'L' && dn.[0] = 'R' then
            Traffic_matrix.set tm ~src ~dst 1300.));
  tm

let ring ?(line_type = Line_type.T56) n =
  if n < 3 then invalid_arg "Generators.ring: n < 3";
  let b = Builder.create () in
  for i = 0 to n - 1 do
    ignore (Builder.trunk b line_type (node_name "n" i) (node_name "n" ((i + 1) mod n)))
  done;
  Builder.build b

let ring_chord ?(line_type = Line_type.T56) rng ~nodes ~chords =
  if nodes < 3 then invalid_arg "Generators.ring_chord: nodes < 3";
  let b = Builder.create () in
  for i = 0 to nodes - 1 do
    ignore
      (Builder.trunk b line_type (node_name "n" i) (node_name "n" ((i + 1) mod nodes)))
  done;
  let exists = Hashtbl.create 16 in
  let rec add_chord remaining attempts =
    if remaining > 0 && attempts < chords * 50 then begin
      let i = Rng.int rng nodes in
      let j = Rng.int rng nodes in
      let lo = min i j and hi = max i j in
      let adjacent = hi - lo <= 1 || (lo = 0 && hi = nodes - 1) in
      if adjacent || Hashtbl.mem exists (lo, hi) then
        add_chord remaining (attempts + 1)
      else begin
        Hashtbl.add exists (lo, hi) ();
        ignore (Builder.trunk b line_type (node_name "n" lo) (node_name "n" hi));
        add_chord (remaining - 1) (attempts + 1)
      end
    end
  in
  add_chord chords 0;
  Builder.build b

let random_geometric ?(line_type = Line_type.T56) rng ~nodes ~radius =
  if nodes < 2 then invalid_arg "Generators.random_geometric: nodes < 2";
  let pos = Array.init nodes (fun _ -> (Rng.float rng 1., Rng.float rng 1.)) in
  let b = Builder.create () in
  for i = 0 to nodes - 1 do
    ignore (Builder.add_node b (node_name "n" i))
  done;
  let dist i j =
    let xi, yi = pos.(i) and xj, yj = pos.(j) in
    sqrt (((xi -. xj) ** 2.) +. ((yi -. yj) ** 2.))
  in
  (* Union-find to track components while adding radius edges. *)
  let parent = Array.init nodes Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j = parent.(find i) <- find j in
  for i = 0 to nodes - 1 do
    for j = i + 1 to nodes - 1 do
      if dist i j <= radius then begin
        ignore (Builder.trunk b line_type (node_name "n" i) (node_name "n" j));
        union i j
      end
    done
  done;
  (* Stitch components: connect each component root to its nearest node in
     another component until one component remains. *)
  let rec stitch () =
    let roots = Hashtbl.create 8 in
    for i = 0 to nodes - 1 do
      Hashtbl.replace roots (find i) ()
    done;
    if Hashtbl.length roots > 1 then begin
      let r0 = find 0 in
      let best = ref None in
      for i = 0 to nodes - 1 do
        for j = 0 to nodes - 1 do
          if find i = r0 && find j <> r0 then
            match !best with
            | Some (_, _, d) when d <= dist i j -> ()
            | _ -> best := Some (i, j, dist i j)
        done
      done;
      match !best with
      | Some (i, j, _) ->
        ignore (Builder.trunk b line_type (node_name "n" i) (node_name "n" j));
        union i j;
        stitch ()
      | None -> ()
    end
  in
  stitch ();
  Builder.build b

let waxman ?(line_type = Line_type.T56) rng ~nodes ~alpha ~beta =
  if nodes < 2 then invalid_arg "Generators.waxman: nodes < 2";
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Generators.waxman: alpha outside (0, 1]";
  if not (beta > 0. && beta <= 1.) then
    invalid_arg "Generators.waxman: beta outside (0, 1]";
  let l = sqrt 2. in
  let scale = beta *. l in
  (* Pairs whose connection probability would fall below [eps] are never
     examined: beyond [r_cut] the exponential has decayed past it.  This
     is what makes the generator usable at 10^5 nodes — candidate pairs
     come from a grid of cells no smaller than [r_cut], so each node looks
     only at its 3x3 cell neighborhood instead of every other node. *)
  let eps = 1e-5 in
  let r_cut = Float.min l (scale *. log (alpha /. eps)) in
  let xs = Array.make nodes 0. and ys = Array.make nodes 0. in
  (* Explicit loop: draw order is part of the generator's determinism
     contract, and [Array.init]'s evaluation order is unspecified. *)
  for i = 0 to nodes - 1 do
    xs.(i) <- Rng.float rng 1.;
    ys.(i) <- Rng.float rng 1.
  done;
  let cells = max 1 (int_of_float (1. /. r_cut)) in
  let cell v = min (cells - 1) (int_of_float (v *. float_of_int cells)) in
  (* CSR-style grid buckets, nodes in id order within each cell so the
     examination order — and hence the RNG stream — is deterministic. *)
  let ncells = cells * cells in
  let count = Array.make ncells 0 in
  for i = 0 to nodes - 1 do
    let c = (cell ys.(i) * cells) + cell xs.(i) in
    count.(c) <- count.(c) + 1
  done;
  let off = Array.make (ncells + 1) 0 in
  for c = 0 to ncells - 1 do
    off.(c + 1) <- off.(c) + count.(c)
  done;
  let members = Array.make nodes 0 in
  let fill = Array.copy off in
  for i = 0 to nodes - 1 do
    let c = (cell ys.(i) * cells) + cell xs.(i) in
    members.(fill.(c)) <- i;
    fill.(c) <- fill.(c) + 1
  done;
  let bld = Builder.create () in
  for i = 0 to nodes - 1 do
    ignore (Builder.add_node bld (node_name "n" i))
  done;
  let parent = Array.init nodes Fun.id in
  let find i =
    let i = ref i in
    while parent.(!i) <> !i do
      parent.(!i) <- parent.(parent.(!i));
      i := parent.(!i)
    done;
    !i
  in
  for i = 0 to nodes - 1 do
    let cx = cell xs.(i) and cy = cell ys.(i) in
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        let nx = cx + dx and ny = cy + dy in
        if nx >= 0 && nx < cells && ny >= 0 && ny < cells then begin
          let c = (ny * cells) + nx in
          for k = off.(c) to off.(c + 1) - 1 do
            let j = members.(k) in
            if j > i then begin
              let d = Float.hypot (xs.(i) -. xs.(j)) (ys.(i) -. ys.(j)) in
              if d <= r_cut
                 && Rng.float rng 1. < alpha *. exp (-.d /. scale)
              then begin
                ignore
                  (Builder.trunk bld line_type (node_name "n" i)
                     (node_name "n" j));
                parent.(find i) <- find j
              end
            end
          done
        end
      done
    done
  done;
  (* Stitch stray components along the x-sorted node order: consecutive
     nodes are spatially close, each union is O(~1), and one pass leaves a
     single component — no quadratic nearest-component search. *)
  let order = Array.init nodes Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare xs.(a) xs.(b) with
      | 0 -> (
        match Float.compare ys.(a) ys.(b) with
        | 0 -> Int.compare a b
        | c -> c)
      | c -> c)
    order;
  for k = 1 to nodes - 1 do
    let a = order.(k - 1) and b = order.(k) in
    if find a <> find b then begin
      ignore (Builder.trunk bld line_type (node_name "n" a) (node_name "n" b));
      parent.(find a) <- find b
    end
  done;
  Builder.build bld

let hierarchical ?(core_type = Line_type.T448) ?(pop_type = Line_type.T112)
    ?(access_type = Line_type.T56) ~cores ~pops_per_core ~access_per_pop () =
  if cores < 3 then invalid_arg "Generators.hierarchical: cores < 3";
  if pops_per_core < 1 then
    invalid_arg "Generators.hierarchical: pops_per_core < 1";
  if access_per_pop < 0 then
    invalid_arg "Generators.hierarchical: access_per_pop < 0";
  let bld = Builder.create () in
  let core i = node_name "c" i in
  let pop i j = Printf.sprintf "c%dp%d" i j in
  let access i j k = Printf.sprintf "c%dp%da%d" i j k in
  (* Core ring plus skip-two chords: every core pair has disjoint paths,
     and the core diameter stays ~cores/4. *)
  for i = 0 to cores - 1 do
    ignore (Builder.trunk bld core_type (core i) (core ((i + 1) mod cores)))
  done;
  if cores >= 5 then
    for i = 0 to cores - 1 do
      ignore (Builder.trunk bld core_type (core i) (core ((i + 2) mod cores)))
    done;
  for i = 0 to cores - 1 do
    for j = 0 to pops_per_core - 1 do
      (* Each PoP dual-homes to its own core and the next — losing one
         core partitions nothing. *)
      ignore (Builder.trunk bld pop_type (pop i j) (core i));
      ignore (Builder.trunk bld pop_type (pop i j) (core ((i + 1) mod cores)));
      for k = 0 to access_per_pop - 1 do
        ignore (Builder.trunk bld access_type (access i j k) (pop i j));
        if pops_per_core > 1 then
          ignore
            (Builder.trunk bld access_type (access i j k)
               (pop i ((j + 1) mod pops_per_core)))
      done
    done
  done;
  Builder.build bld

type spec =
  | Waxman of { nodes : int; alpha : float; beta : float }
  | Hierarchical of { cores : int; pops_per_core : int; access_per_pop : int }

let spec_nodes = function
  | Waxman { nodes; _ } -> nodes
  | Hierarchical { cores; pops_per_core; access_per_pop } ->
    cores * (1 + (pops_per_core * (1 + access_per_pop)))

let of_spec rng = function
  | Waxman { nodes; alpha; beta } -> waxman rng ~nodes ~alpha ~beta
  | Hierarchical { cores; pops_per_core; access_per_pop } ->
    hierarchical ~cores ~pops_per_core ~access_per_pop ()

let line ?(line_type = Line_type.T56) n =
  if n < 2 then invalid_arg "Generators.line: n < 2";
  let b = Builder.create () in
  for i = 0 to n - 2 do
    ignore (Builder.trunk b line_type (node_name "n" i) (node_name "n" (i + 1)))
  done;
  Builder.build b

let full_mesh ?(line_type = Line_type.T56) n =
  if n < 2 then invalid_arg "Generators.full_mesh: n < 2";
  let b = Builder.create () in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      ignore (Builder.trunk b line_type (node_name "n" i) (node_name "n" j))
    done
  done;
  Builder.build b
