(* D0xx fixture: shared mutable state captured by a parallel body.  The
   local Domain_pool stub keeps the fixture dependency-free — the lint
   matches call targets by path suffix, so this module's
   Domain_pool.parallel_for counts. *)
module Domain_pool = struct
  let parallel_for _pool ~init n f =
    for i = 0 to n - 1 do
      f (init 0) i
    done
end

(* D001: every worker races on [total]. *)
let sum pool xs =
  let total = ref 0 in
  Domain_pool.parallel_for pool ~init:ignore (Array.length xs) (fun () i ->
      total := !total + xs.(i));
  !total
