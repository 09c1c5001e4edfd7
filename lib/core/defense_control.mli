(** Wire a {!Fortress_defense.Controller} to a live stack.

    The controller library sits {e below} fortress_core in the dependency
    order, so it never sees a deployment: it acts through an actuator of
    closures built here over any {!Stack_intf.S} stack. Sensing goes
    through [attach_telemetry ~alarms:false] — the signal plane records
    alarms for the query API without re-emitting them onto the sink, so
    attaching a defender whose strategy never acts (notably
    {!Fortress_defense.Controller.Strategy.static}) leaves the event trace
    byte-identical to an undefended run. *)

val attach :
  (module Stack_intf.S with type t = 's) ->
  ?window:float ->
  ?capacity:int ->
  ?params:(Fortress_obs.Signal.kind -> Fortress_obs.Signal.params) ->
  ?period:float ->
  's ->
  Fortress_defense.Controller.Strategy.t ->
  Fortress_defense.Controller.t
(** Attach a defender to a stack. Defaults come from the stack's live
    configuration ({!Stack_intf.S.rekey_period} and
    {!Stack_intf.S.default_threshold} — the stack's obfuscation daemon
    must be running); the actuator drives the signature's
    period/threshold knobs and wraps both boosts in
    [Engine.causal_scope "defense.actuate"]. [period] is the controller
    boundary spacing (default: the stack's rekey period, so decisions land
    between obfuscation boundaries). Telemetry options are passed through
    to {!Stack_intf.S.attach_telemetry}. *)
