(* The clean twin of domains_bad.ml: per-worker scratch arrives as a
   body parameter and the only captured array is written at the
   body-local index, the partitioned-output pattern the lint exempts. *)
module Domain_pool = struct
  let parallel_for _pool ~init n f =
    for i = 0 to n - 1 do
      f (init 0) i
    done
end

let fill pool out xs =
  Domain_pool.parallel_for pool ~init:(fun _ -> 0) (Array.length xs)
    (fun _scratch i -> out.(i) <- xs.(i) * 2)
