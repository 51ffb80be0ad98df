(* A small reusable pool of worker domains for embarrassingly parallel
   loops (per-source SPF recomputes, flow-assignment and flow-metrics
   stripes, sweep grid points).  Hand-rolled on Domain + Mutex/Condition so the library picks
   up no dependency beyond the OCaml 5 stdlib.

   One handout serves every loop: each participating domain owns an
   atomic index range, claims [grain] indices at a time from its bottom,
   and an idle domain steals the top half of another's remainder.  Fine,
   even bodies (per-source Dijkstra) pass a larger [grain] so claims stay
   rare; coarse, uneven ones (sweep grid points spanning 5-period toys
   and 10k-node meshes) keep grain 1, so a heavy item never serializes a
   whole static share behind it.

   Scheduling is racy but the *results* are not: every index is executed
   exactly once and callers write results into per-index slots, making
   the outcome independent of which domain ran what.  A pool of size 1
   spawns no domains at all and runs the loop inline — the sequential
   reference path. *)

type probe = {
  chunk_begin : label:int -> lo:int -> hi:int -> unit;
  chunk_end : label:int -> lo:int -> hi:int -> unit;
}

(* A participant's remaining index range, packed into one atomic int
   (see [pack] below).  The record wrapper is load-bearing: an
   [int Atomic.t array] has an abstract element type, so every access
   would compile to the generic maybe-float array path (tag test plus a
   float-boxing branch) — wrapping in a concrete record makes the array
   manifestly an addr array and keeps [claim_block]/[steal]
   allocation-free. *)
type steal_slot = { range : int Atomic.t }

type job = {
  make_f : int -> int -> unit;
      (* each participating domain materializes its own body once (letting
         it close over private scratch) and then feeds it indices; the
         first argument is the participant's slot in [0, size) — the
         caller is 0 — so bodies can key cached per-slot state *)
  n : int;
  grain : int; (* indices per claim *)
  ranges : steal_slot array;
      (* per-participant [lo, hi) ranges, packed; see [pack] below *)
  label : int; (* passed through to the probe; -1 = unlabeled *)
  completed : int Atomic.t; (* indices finished (ran or skipped on error) *)
  mutable failure : exn option; (* first exception, re-raised by the caller *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable generation : int; (* bumped per parallel_for; lets workers
                               distinguish a new job from a drained one *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list; (* spawned by the first fan-out *)
  mutable probe : probe option;
      (* fired by whichever domain runs a claimed block, so an observer (the
         flight recorder) sees which indices each domain ran and when *)
}

let size t = t.size

let set_probe t probe = t.probe <- probe

let recommended_size () = max 1 (Domain.recommended_domain_count () - 1)

(* One resolution path for every CLI and library default: an explicit
   count wins, [0] means "size to this machine", anything else falls
   back to the environment (same rules), then to 1 — so `--domains 0`
   and `ARPANET_DOMAINS=0` agree everywhere. *)
let resolve ?requested () =
  let of_int n =
    if n = 0 then Some (recommended_size ())
    else if n >= 1 then Some (min n 128)
    else None
  in
  let from_env () =
    match Sys.getenv_opt "ARPANET_DOMAINS" with
    | None -> 1
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> Option.value (of_int n) ~default:1
      | None -> 1)
  in
  match requested with
  | Some n -> (
    match of_int n with
    | Some size -> size
    | None ->
      invalid_arg
        (Printf.sprintf "Domain_pool.resolve: bad domain count %d" n))
  | None -> from_env ()

let record_failure t job e =
  Mutex.lock t.mutex;
  if job.failure = None then job.failure <- Some e;
  Mutex.unlock t.mutex

let[@inline] finish_block t job count =
  let done_ = count + Atomic.fetch_and_add job.completed count in
  if done_ = job.n then begin
    Mutex.lock t.mutex;
    Condition.broadcast t.work_done;
    Mutex.unlock t.mutex
  end

(* Run one claimed block through the body, reporting to the probe and
   capturing (not propagating) the first failure. *)
let run_block t job f ~lo ~hi =
  let probe = t.probe in
  (match probe with
  | Some p -> p.chunk_begin ~label:job.label ~lo ~hi
  | None -> ());
  (try
     for i = lo to hi - 1 do
       f i
     done
   with e -> record_failure t job e);
  (match probe with
  | Some p -> p.chunk_end ~label:job.label ~lo ~hi
  | None -> ());
  finish_block t job (hi - lo)

(* A participant's remaining range [lo, hi) packed into one immediate
   int: [lo] in the upper bits, [hi] in the lower 31.  Every transition
   is a single CAS on the packed value, and the packed value alone
   carries the range's meaning — so a stale read that happens to CAS
   successfully still performs a valid transition (ABA is harmless) and
   each index is handed out exactly once. *)

let range_bits = 31

let range_mask = (1 lsl range_bits) - 1

let[@inline] pack ~lo ~hi = (lo lsl range_bits) lor hi

let[@inline] range_lo r = r lsr range_bits

let[@inline] range_hi r = r land range_mask

(* Claim the next block for participant [me]: from the bottom of its own
   range while it lasts, then by stealing from the others — the top half
   of a range still worth splitting, or the whole remainder of a small
   one.  Returns the claimed block as [pack ~lo ~hi], or -1 when every
   range is drained.  Pure integer CAS traffic: every parallel loop's
   dispatch runs through here and must not allocate. *)
let rec claim_block ranges me grain =
  let mine = (Array.unsafe_get ranges me).range in
  let r = Atomic.get mine in
  let lo = range_lo r and hi = range_hi r in
  if lo < hi then begin
    let stop = if hi - lo <= grain then hi else lo + grain in
    if Atomic.compare_and_set mine r (pack ~lo:stop ~hi) then pack ~lo ~hi:stop
    else claim_block ranges me grain
  end
  else steal ranges me grain ((me + 1) mod Array.length ranges)
[@@hot_path]

and steal ranges me grain victim =
  if victim = me then -1
  else begin
    let v = (Array.unsafe_get ranges victim).range in
    let r = Atomic.get v in
    let lo = range_lo r and hi = range_hi r in
    let len = hi - lo in
    if len = 0 then steal ranges me grain ((victim + 1) mod Array.length ranges)
    else if len <= grain then
      (* Not worth splitting: take the whole remainder. *)
      if Atomic.compare_and_set v r (pack ~lo:hi ~hi) then pack ~lo ~hi
      else claim_block ranges me grain
    else begin
      (* Steal the top half; the victim keeps draining its bottom, so
         both sides stay in the cache region they started in. *)
      let mid = lo + ((len + 1) / 2) in
      if Atomic.compare_and_set v r (pack ~lo ~hi:mid) then begin
        (* Publish the loot as [me]'s own range.  Between the CAS and
           this store the stolen indices are invisible to other thieves,
           which at worst idles them early — [me] itself drains the
           range before asking again. *)
        Atomic.set (Array.unsafe_get ranges me).range (pack ~lo:mid ~hi);
        claim_block ranges me grain
      end
      else claim_block ranges me grain
    end
  end
[@@hot_path]

(* Claim and run blocks until every range is drained. *)
let drain t job ~me =
  let f =
    try job.make_f me
    with e ->
      record_failure t job e;
      fun _ -> ()
  in
  let continue_ = ref true in
  while !continue_ do
    let blk = claim_block job.ranges me job.grain in
    if blk < 0 then continue_ := false
    else run_block t job f ~lo:(range_lo blk) ~hi:(range_hi blk)
  done

let rec worker_loop t ~me last_generation =
  Mutex.lock t.mutex;
  while
    (not t.stopping)
    && (t.job = None || t.generation = last_generation)
  do
    Condition.wait t.work_ready t.mutex
  done;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    let generation = t.generation in
    let job = Option.get t.job in
    Mutex.unlock t.mutex;
    drain t job ~me;
    worker_loop t ~me generation
  end

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

(* Workers are spawned by the first loop that fans out, not at [create]:
   a simulator whose loops all stay below their fan-out thresholds (the
   57-node ARPANET) never pays for idle domains, which also skew the
   runtime's major-heap accounting. *)
let create size =
  if size < 1 then invalid_arg "Domain_pool.create: size must be >= 1";
  { size;
    mutex = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    job = None;
    generation = 0;
    stopping = false;
    workers = [];
    probe = None }

(* Called by the loop's caller before it publishes a job; loops do not
   nest, so no other domain races the spawn. *)
let spawn_workers t =
  (* The caller is participant 0; workers take 1 .. size-1 — the slot
     whose range each drains first.  The generation is read here, not in
     the new domain: a worker that starts after the caller publishes the
     job must still see that job as new. *)
  let generation = t.generation in
  t.workers <-
    List.init (t.size - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~me:(i + 1) generation));
  (* If the pool is dropped without an explicit shutdown, release the
     workers rather than leaving them blocked forever.  Joining from a
     finalizer is unsafe, so just signal; the domains exit promptly and
     the runtime reaps them at program exit. *)
  Gc.finalise
    (fun t ->
      Mutex.lock t.mutex;
      t.stopping <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex)
    t

(* Initial split: equal slices in index order, so participant [k] starts
   in its own region and stealing only kicks in once someone runs dry. *)
let initial_ranges ~participants n =
  Array.init participants (fun k ->
      { range =
          Atomic.make
            (pack ~lo:(k * n / participants) ~hi:((k + 1) * n / participants))
      })

let run_job t ~label ~grain ~make_f n =
  let job =
    { make_f;
      n;
      grain;
      ranges = initial_ranges ~participants:t.size n;
      label;
      completed = Atomic.make 0;
      failure = None }
  in
  if t.workers = [] && not t.stopping then spawn_workers t;
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Domain_pool.parallel_for: pool is shut down"
  end;
  if t.job <> None then begin
    Mutex.unlock t.mutex;
    invalid_arg "Domain_pool.parallel_for: pool already running a loop"
  end;
  t.job <- Some job;
  t.generation <- t.generation + 1;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  (* The caller is a full member of the crew. *)
  drain t job ~me:0;
  Mutex.lock t.mutex;
  while Atomic.get job.completed < job.n do
    Condition.wait t.work_done t.mutex
  done;
  t.job <- None;
  let failure = job.failure in
  Mutex.unlock t.mutex;
  match failure with None -> () | Some e -> raise e

(* The inline (pool of one / single index) path still reports to the probe:
   the caller domain ran the whole range as one block. *)
let run_inline t ~label n f =
  match t.probe with
  | None ->
    for i = 0 to n - 1 do
      f i
    done
  | Some p ->
    p.chunk_begin ~label ~lo:0 ~hi:n;
    Fun.protect
      ~finally:(fun () -> p.chunk_end ~label ~lo:0 ~hi:n)
      (fun () ->
        for i = 0 to n - 1 do
          f i
        done)

let parallel_for ?(grain = 1) ?(label = -1) t ~init n f =
  if n <= 0 then ()
  else if t.size <= 1 || n = 1 then begin
    let s = init 0 in
    run_inline t ~label n (fun i -> f s i)
  end
  else if n > range_mask then
    invalid_arg "Domain_pool.parallel_for: more than 2^31 items"
  else
    run_job t ~label ~grain:(max 1 grain)
      ~make_f:(fun me ->
        let s = init me in
        fun i -> f s i)
      n
