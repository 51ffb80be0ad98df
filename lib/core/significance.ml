open! Import

type policy = Decaying of { initial : float; step : float } | Fixed of int

let dspf_policy = Decaying { initial = 6.4; step = 1.28 }

(* The threshold is held in centi-units (hundredths of a cost unit) so the
   per-period decay on the quiet path is a plain int store — a float field
   in this mixed record would box on every write.  Cost deltas are ints, so
   [delta * 100 >= threshold_c] reproduces [float delta >= threshold]
   exactly for thresholds representable in centi-units (all built-in
   policies are). *)
type t = {
  initial_c : int;  (* threshold reset value, centi-units *)
  step_c : int;  (* decay per quiet period, centi-units; 0 = fixed *)
  mutable last_flooded : int;
  mutable periods : int;  (* periods since last flood *)
  mutable threshold_c : int;  (* current threshold, centi-units *)
}

let centi x = int_of_float (Float.round (x *. 100.))

let create policy ~initial_cost =
  let initial_c, step_c =
    match policy with
    | Decaying { initial; step } -> (centi initial, centi step)
    | Fixed k -> (k * 100, 0)
  in
  { initial_c;
    step_c;
    last_flooded = initial_cost;
    periods = 0;
    threshold_c = initial_c }

let last_flooded t = t.last_flooded

let max_quiet_periods =
  int_of_float (Units.max_update_interval_s /. Units.routing_period_s)

let[@inline] consider t ~cost =
  t.periods <- t.periods + 1;
  let delta = abs (cost - t.last_flooded) in
  let significant = delta * 100 >= t.threshold_c in
  let timer_expired = t.periods >= max_quiet_periods in
  if significant || timer_expired then begin
    t.last_flooded <- cost;
    t.periods <- 0;
    t.threshold_c <- t.initial_c;
    true
  end
  else begin
    if t.step_c > 0 then t.threshold_c <- max 0 (t.threshold_c - t.step_c);
    false
  end

let force t ~cost =
  t.last_flooded <- cost;
  t.periods <- 0;
  t.threshold_c <- t.initial_c
