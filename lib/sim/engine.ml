type clock = Event_queue.clock = { mutable now : float }

type t = {
  queue : Event_queue.t;
  mutable processed : int;
  mutable dispatch : int -> int -> int -> unit;
}

let transmission_complete = 0

let arrival = 1

let generate = 2

let retransmit = 3

let routing_period = 4

let create () =
  { queue = Event_queue.create (); processed = 0; dispatch = (fun _ _ _ -> ()) }

let set_dispatch t f = t.dispatch <- f

let clock t = Event_queue.clock t.queue

let now t = (Event_queue.clock t.queue).now

(* The delay is handed to the queue as the caller boxed it; the queue
   forms [now +. after] itself.  Where cross-module inlining is on
   (release builds), [schedule] and [Event_queue.add_after] inline into
   the caller and the delay is never boxed at all. *)
let[@inline] schedule t ~after ~kind ~a ~b =
  if after < 0. then invalid_arg "Engine.schedule: negative delay";
  Event_queue.add_after t.queue ~after ~kind ~a ~b

let schedule_at t ~at ~kind ~a ~b =
  if at < (Event_queue.clock t.queue).now then
    invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.add t.queue ~time:at ~kind ~a ~b

(* [due] compares the head's time with the horizon inside the queue and
   [pop_min] sets the clock there, so draining an event passes only ints
   across modules: the loop allocates nothing. *)
let run_until t horizon =
  let q = t.queue in
  while Event_queue.due q horizon do
    let kind = Event_queue.pop_min q in
    t.processed <- t.processed + 1;
    t.dispatch kind (Event_queue.popped_a q) (Event_queue.popped_b q)
  done;
  Event_queue.advance_to q horizon

let events_processed t = t.processed

let pending t = Event_queue.length t.queue
