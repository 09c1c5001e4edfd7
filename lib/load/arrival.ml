module Prng = Fortress_util.Prng

type t =
  | Uniform of { period : float }
  | Poisson of { rate : float }
  | Bursty of { rate : float; burst : float; mean_on : float; mean_off : float }

(* NaN passes every range comparison below and infinity passes the lower
   bounds, so each parameter is first checked finite *)
let validate = function
  | Uniform { period } ->
      if not (Float.is_finite period) then Error "uniform: period must be finite"
      else if period <= 0.0 then Error "uniform: period must be positive"
      else Ok ()
  | Poisson { rate } ->
      if not (Float.is_finite rate) then Error "poisson: rate must be finite"
      else if rate <= 0.0 then Error "poisson: rate must be positive"
      else Ok ()
  | Bursty { rate; burst; mean_on; mean_off } ->
      if not (List.for_all Float.is_finite [ rate; burst; mean_on; mean_off ]) then
        Error "bursty: rates and phase means must be finite"
      else if rate <= 0.0 then Error "bursty: rate must be positive"
      else if burst <= rate then Error "bursty: burst rate must exceed the base rate"
      else if mean_on <= 0.0 || mean_off <= 0.0 then
        Error "bursty: phase means must be positive"
      else Ok ()

let to_string = function
  | Uniform { period } -> Printf.sprintf "uniform:period=%g" period
  | Poisson { rate } -> Printf.sprintf "poisson:rate=%g" rate
  | Bursty { rate; burst; mean_on; mean_off } ->
      Printf.sprintf "bursty:rate=%g,burst=%g,on=%g,off=%g" rate burst mean_on mean_off

type state = { mutable burst_on : bool; mutable phase_left : float }

let init t prng =
  match t with
  | Uniform _ | Poisson _ -> { burst_on = false; phase_left = 0.0 }
  | Bursty { mean_off; _ } ->
      (* the process starts in the quiet phase; exponential phase holds *)
      { burst_on = false; phase_left = Prng.exponential prng ~rate:(1.0 /. mean_off) }

(* MMPP-2 interarrival: draw a candidate gap at the current phase's rate;
   if the phase ends first, consume the remaining phase time, flip phase
   (redrawing its exponential hold), and — by memorylessness — redraw the
   candidate at the new rate. Terminates with probability 1; every draw
   comes from [prng] alone, so the stream is fully determined by the
   seed. *)
let next_gap t state prng =
  match t with
  | Uniform { period } -> period
  | Poisson { rate } -> Prng.exponential prng ~rate
  | Bursty { rate; burst; mean_on; mean_off } ->
      let rec go acc =
        let r = if state.burst_on then burst else rate in
        let gap = Prng.exponential prng ~rate:r in
        if gap <= state.phase_left then begin
          state.phase_left <- state.phase_left -. gap;
          acc +. gap
        end
        else begin
          let acc = acc +. state.phase_left in
          state.burst_on <- not state.burst_on;
          let mean = if state.burst_on then mean_on else mean_off in
          state.phase_left <- Prng.exponential prng ~rate:(1.0 /. mean);
          go acc
        end
      in
      go 0.0
