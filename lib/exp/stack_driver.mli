(** The experiment loop's view of a stack: {!Fortress_core.Stack_intf.S}
    plus the construction hooks {!Inject} needs to run one trial — build
    at a key-space size, start the obfuscation daemon, fold a fault plan
    on, and run the attack campaign. The two implementations meet the
    signature directly over the deployments, whose own daemons carry the
    rekey-period knobs; they pin down everything stack-specific that used
    to live in duplicated per-stack trial functions, and {!Inject} is
    written once against [S]. A defender attaches through
    {!Fortress_core.Defense_control.attach} with the stack's module. *)

module type S = sig
  include Fortress_core.Stack_intf.S

  val make : chi:int -> seed:int -> t
  (** A fresh deployment at key-space size [chi], engine seeded with
      [seed]. *)

  val start_obfuscation : t -> period:float -> unit
  (** Start the deployment's own obfuscation daemon in PO mode
      ({!Fortress_core.Deployment.obfuscate} or the SMR batched
      {!Fortress_core.Smr_deployment.obfuscate}). The rekey-period knobs
      raise [Invalid_argument] until it runs. *)

  val install_plan : t -> Fortress_faults.Plan.t -> seed:int -> unit -> Fortress_faults.Injector.stats
  (** Fold the fault plan onto the stack; the returned thunk reads the
      injector's statistics (call it after the run). Stall actions reach
      the deployment's daemon when they fire. *)

  val default_workload : bool
  (** Whether {!Inject} arms its periodic health-probe client on this
      stack (the historical fortress behaviour; the SMR path measures EL
      only unless an explicit [--load] workload is attached). *)

  val run_campaign :
    ?strategy:Fortress_attack.Adaptive.Strategy.t ->
    t ->
    omega:int ->
    kappa:float ->
    period:float ->
    seed:int ->
    max_steps:int ->
    directives:int ref ->
    int option
  (** Run the stack's attack campaign to compromise or [max_steps];
      adds any adaptive directives applied to [directives]. [kappa] is
      ignored by stacks without an indirect-probe channel (SMR). *)
end

module Fortress :
  S with type t = Fortress_core.Deployment.t and type client = Fortress_core.Client.t
(** The fortified S1/S2 system. Both boosts act on the nodes directly
    ({!Fortress_core.Deployment.rekey}, {!Fortress_core.Deployment.recover}),
    outside the daemon's ["obf.boundary"] scope. *)

module Smr :
  S
    with type t = Fortress_core.Smr_deployment.t
     and type client = Fortress_core.Smr_deployment.client
(** The S0 SMR baseline. Both boosts run one batched boundary through
    {!Fortress_core.Obfuscation.fire}, even while the daemon is stalled;
    the proxy-threshold knob is a graceful no-op. *)
