module Deployment = Fortress_core.Deployment
module Smr_deployment = Fortress_core.Smr_deployment
module Obfuscation = Fortress_core.Obfuscation
module Defense_control = Fortress_core.Defense_control
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

  val attach_defense :
    t -> Fortress_defense.Controller.Strategy.t -> Fortress_defense.Controller.t

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

module Fortress : S = struct
  include Fortress_core.Fortress_stack

  let make ~chi ~seed =
    of_parts
      (Deployment.create
         { Deployment.default_config with keyspace = Keyspace.of_size chi; seed })

  let start_obfuscation t ~period =
    set_obfuscation t (Obfuscation.attach (deployment t) ~mode:Obfuscation.PO ~period)

  let require_obfuscation t =
    match obfuscation t with
    | Some o -> o
    | None -> invalid_arg "Stack_driver.Fortress: obfuscation not started"

  let install_plan t plan ~seed =
    let handle =
      Wiring.install plan
        (Wiring.fortress ~obfuscation:(require_obfuscation t) (deployment t))
        ~seed
    in
    fun () -> Wiring.stats handle

  let attach_defense t strategy =
    Defense_control.attach_stack (module Fortress_core.Fortress_stack) t strategy

  let default_workload = true

  let run_campaign ?strategy t ~omega ~kappa ~period ~seed ~max_steps ~directives =
    let campaign =
      Campaign.launch ?strategy (deployment t)
        (Campaign.make_config ~omega ~kappa ~period ~seed ())
    in
    let lifetime = Campaign.run_until_compromise campaign ~max_steps in
    directives := !directives + (Campaign.stats campaign).Stats.directives_applied;
    lifetime
end

module Smr : S = struct
  include Fortress_core.Smr_stack

  let make ~chi ~seed =
    of_parts
      (Smr_deployment.create
         { Smr_deployment.default_config with keyspace = Keyspace.of_size chi; seed })

  let start_obfuscation t ~period =
    set_schedule t
      (Smr_deployment.attach_schedule (deployment t) ~mode:Obfuscation.PO ~period)

  let require_schedule t =
    match schedule t with
    | Some s -> s
    | None -> invalid_arg "Stack_driver.Smr: obfuscation schedule not started"

  let install_plan t plan ~seed =
    let handle =
      Wiring.install plan (Wiring.smr ~schedule:(require_schedule t) (deployment t)) ~seed
    in
    fun () -> Wiring.stats handle

  let attach_defense t strategy =
    Defense_control.attach_stack (module Fortress_core.Smr_stack) t strategy

  let default_workload = false

  let run_campaign ?strategy t ~omega ~kappa:_ ~period ~seed ~max_steps ~directives =
    let campaign =
      Smr_campaign.launch ?strategy (deployment t)
        (Smr_campaign.make_config ~omega ~period ~seed ())
    in
    let lifetime = Smr_campaign.run_until_compromise campaign ~max_steps in
    directives := !directives + (Smr_campaign.stats campaign).Stats.directives_applied;
    lifetime
end
