module Controller = Fortress_defense.Controller

(* The wiring layer between the deployment-agnostic controller and the
   stacks. The controller library sits below fortress_core, so it steers
   through an actuator of closures built here; the signal it reads comes
   from [Engine.attach_telemetry ~alarms:false] so that attaching a
   defender that never acts leaves the event trace byte-identical to an
   undefended run (the [static] conformance contract). *)
let attach (type s) (module St : Stack_intf.S with type t = s) (stack : s) strategy =
  let engine = St.engine stack in
  let _timeline, signal = Fortress_sim.Engine.attach_telemetry ~alarms:false engine in
  let defaults : Controller.defaults =
    { rekey_period = St.rekey_period stack; threshold = St.default_threshold stack }
  in
  let actuator =
    {
      Controller.set_rekey_period = (fun p -> St.set_rekey_period stack p);
      set_threshold = (fun k -> St.set_threshold stack k);
      rekey_now =
        (fun () ->
          Fortress_sim.Engine.causal_scope engine "defense.actuate" (fun () ->
              St.rekey_now stack));
      recover_now =
        (fun () ->
          Fortress_sim.Engine.causal_scope engine "defense.actuate" (fun () ->
              St.recover_now stack));
    }
  in
  Controller.launch ~engine ~signal ~period:defaults.rekey_period ~defaults ~actuator strategy
