open! Import

type t = {
  origin : Node.t;
  seq : Sequence.t;
  costs : (Link.id * int) list;
}

let wire_bits ~links = 128 + (48 * links)

let run_end ~(link_src : int array) ~(changed_ids : int array) ~count k =
  let origin = link_src.(changed_ids.(k)) in
  let j = ref (k + 1) in
  while !j < count && link_src.(changed_ids.(!j)) = origin do
    incr j
  done;
  !j
[@@hot_path]

let runs ~link_src ~changed_ids ~count =
  let n = ref 0 and k = ref 0 in
  while !k < count do
    k := run_end ~link_src ~changed_ids ~count !k;
    incr n
  done;
  !n
[@@hot_path]

let size_bits t = float_of_int (wire_bits ~links:(List.length t.costs))

let pp ppf t =
  Format.fprintf ppf "update %a%a [%s]" Node.pp t.origin Sequence.pp t.seq
    (String.concat "; "
       (List.map
          (fun (l, c) -> Format.asprintf "%a=%d" Link.pp_id l c)
          t.costs))
