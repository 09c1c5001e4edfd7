module Engine = Fortress_sim.Engine
module Event = Fortress_obs.Event

type mode = PO | SO

let mode_to_string = function PO -> "po" | SO -> "so"
let mode_of_string = function "po" -> Some PO | "so" -> Some SO | _ -> None

type t = {
  obf_mode : mode;
  mutable obf_period : float;
  boundary : t -> unit;
  mutable steps : int;
  mutable obf_stalled : bool;
  mutable skipped : int;
  mutable detached : bool;
  mutable pending : Engine.handle option;
}

(* The boundary series is a self-re-arming chain of [schedule_at] events
   rather than [Engine.every] so the period can move between boundaries
   (the adaptive defender's rekey-period actuator). The chain replicates
   [every]'s exact semantics — body first, then re-arm at [now + period],
   one enqueue per boundary — so a run whose period never moves is
   byte-identical to the historical [every]-based schedule. *)
let start engine ~mode ~period boundary =
  if period <= 0.0 then invalid_arg "Obfuscation.start: period must be positive";
  let t =
    {
      obf_mode = mode;
      obf_period = period;
      boundary;
      steps = 0;
      obf_stalled = false;
      skipped = 0;
      detached = false;
      pending = None;
    }
  in
  let rec arm () =
    t.pending <-
      Some
        (Engine.schedule_at engine
           ~time:(Engine.now engine +. t.obf_period)
           (fun () ->
             if not t.detached then begin
               (if t.obf_stalled then begin
                  (* the daemon is wedged: the boundary silently does not happen,
                     so every key stays exactly as exposed as it already was *)
                  t.skipped <- t.skipped + 1;
                  Engine.emit engine
                    (Event.Fault
                       {
                         action = "stall_skip";
                         target = "obfuscation";
                         detail = Printf.sprintf "%s boundary skipped" (mode_to_string mode);
                       })
                end
                else begin
                  boundary t;
                  t.steps <- t.steps + 1
                end);
               arm ()
             end))
  in
  arm ();
  t

let mode t = t.obf_mode
let period t = t.obf_period
let steps_completed t = t.steps

let set_period t p =
  if p <= 0.0 then invalid_arg "Obfuscation.set_period: period must be positive";
  t.obf_period <- p

let fire t = t.boundary t
let set_stalled t v = t.obf_stalled <- v
let stalled t = t.obf_stalled
let skipped_boundaries t = t.skipped

let detach t =
  t.detached <- true;
  Option.iter Engine.cancel t.pending
