module Deployment = Fortress_core.Deployment
module Smr_deployment = Fortress_core.Smr_deployment
module Obfuscation = Fortress_core.Obfuscation
module Keyspace = Fortress_defense.Keyspace
module Campaign = Fortress_attack.Campaign
module Smr_campaign = Fortress_attack.Smr_campaign
module Adaptive = Fortress_attack.Adaptive
module Stats = Fortress_attack.Campaign_intf.Stats
module Plan = Fortress_faults.Plan
module Wiring = Fortress_faults.Wiring
module Injector = Fortress_faults.Injector

module type S = sig
  include Fortress_core.Stack_intf.S

  val make : chi:int -> seed:int -> t
  val start_obfuscation : t -> period:float -> unit
  val install_plan : t -> Plan.t -> seed:int -> unit -> Injector.stats
  val default_workload : bool

  val run_campaign :
    ?strategy:Adaptive.Strategy.t ->
    t ->
    omega:int ->
    kappa:float ->
    period:float ->
    seed:int ->
    max_steps:int ->
    directives:int ref ->
    int option
end

let daemon stack = function
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Stack_driver.%s: obfuscation not started" stack)

let install wiring plan ~seed =
  let handle = Wiring.install plan wiring ~seed in
  fun () -> Wiring.stats handle

module Fortress = struct
  type t = Deployment.t
  type client = Fortress_core.Client.t

  let name = "fortress"
  let engine = Deployment.engine
  let attach_telemetry = Deployment.attach_telemetry
  let symptoms = Deployment.symptoms
  let obfuscation d = daemon "Fortress" (Deployment.obfuscation d)
  let rekey_period d = Obfuscation.period (obfuscation d)
  let set_rekey_period d p = Obfuscation.set_period (obfuscation d) p

  let default_threshold d =
    (Deployment.config d).Deployment.proxy.Fortress_core.Proxy.detection_threshold

  let set_threshold d k =
    Array.iter (fun p -> Fortress_core.Proxy.set_detection_threshold p k) (Deployment.proxies d)

  let rekey_now = Deployment.rekey
  let recover_now = Deployment.recover
  let system_compromised = Deployment.system_compromised
  let new_client = Deployment.new_client
  let submit = Fortress_core.Client.submit
  let client_accepted = Fortress_core.Client.accepted

  let make ~chi ~seed =
    Deployment.create { Deployment.default_config with keyspace = Keyspace.of_size chi; seed }

  let start_obfuscation d ~period = ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period)
  let install_plan d = install (Wiring.fortress d)
  let default_workload = true

  let run_campaign ?strategy d ~omega ~kappa ~period ~seed ~max_steps ~directives =
    let campaign =
      Campaign.launch ?strategy d (Campaign.make_config ~omega ~kappa ~period ~seed ())
    in
    let lifetime = Campaign.run_until_compromise campaign ~max_steps in
    directives := !directives + (Campaign.stats campaign).Stats.directives_applied;
    lifetime
end

module Smr = struct
  type t = Smr_deployment.t
  type client = Smr_deployment.client

  let name = "smr"
  let engine = Smr_deployment.engine
  let attach_telemetry = Smr_deployment.attach_telemetry
  let symptoms = Smr_deployment.symptoms
  let obfuscation d = daemon "Smr" (Smr_deployment.obfuscation d)
  let rekey_period d = Obfuscation.period (obfuscation d)
  let set_rekey_period d p = Obfuscation.set_period (obfuscation d) p

  (* S0 has no proxy tier: the threshold knob is a graceful no-op, and
     both boosts run the daemon's batched boundary *)
  let default_threshold _ = 1
  let set_threshold _ _ = ()
  let rekey_now d = Obfuscation.fire (obfuscation d)
  let recover_now d = Obfuscation.fire (obfuscation d)
  let system_compromised = Smr_deployment.system_compromised
  let new_client = Smr_deployment.new_client
  let submit = Smr_deployment.submit
  let client_accepted = Smr_deployment.client_accepted

  let make ~chi ~seed =
    Smr_deployment.create
      { Smr_deployment.default_config with keyspace = Keyspace.of_size chi; seed }

  let start_obfuscation d ~period =
    ignore (Smr_deployment.obfuscate d ~mode:Obfuscation.PO ~period)

  let install_plan d = install (Wiring.smr d)
  let default_workload = false

  let run_campaign ?strategy d ~omega ~kappa:_ ~period ~seed ~max_steps ~directives =
    let campaign =
      Smr_campaign.launch ?strategy d (Smr_campaign.make_config ~omega ~period ~seed ())
    in
    let lifetime = Smr_campaign.run_until_compromise campaign ~max_steps in
    directives := !directives + (Smr_campaign.stats campaign).Stats.directives_applied;
    lifetime
end
