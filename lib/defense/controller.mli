(** The adaptive defender: an observe–decide–act loop closing the control
    loop the telemetry plane opened.

    The mirror of the attacker's strategy loop
    ([Fortress_attack.Campaign.launch ~strategy]) on the defense side. Each
    controller boundary (aligned with the obfuscation period) a
    {!Defense_observation.t} is assembled from the {!Fortress_obs.Signal}
    query API — defender-visible detectors only — and handed to the
    strategy; non-trivial {!Defense_directive}s are staged and applied at
    the boundary through an {!actuator} of closures, so the controller
    module never needs to see the deployment it steers (the wiring lives
    in [Fortress_core.Defense_control]). Decisions never touch the engine
    mid-step, consume no PRNG, and emit events only when a setting
    actually moves, so

    - {!Strategy.static} is bit-identical to the fixed-schedule run (the
      regression anchor, same contract as the attacker's [oblivious]), and
    - every strategy is deterministic and job-count invariant. *)

type defaults = {
  rekey_period : float;  (** the configured obfuscation period *)
  threshold : int;  (** the configured proxy suspicion threshold *)
}

type actuator = {
  set_rekey_period : float -> unit;
  set_threshold : int -> unit;
  rekey_now : unit -> unit;  (** force an immediate obfuscation boundary *)
  recover_now : unit -> unit;  (** force an immediate recovery *)
}

val null_actuator : actuator
(** Every field a no-op — for tests exercising staging semantics alone. *)

module Strategy : sig
  type decide = Defense_observation.t -> Defense_directive.t

  type t = {
    name : string;  (** CLI name, e.g. ["alarm-rekey"] *)
    describe : string;  (** one-line help text *)
    make : defaults:defaults -> decide;
        (** build a fresh decide function (with fresh internal state) for
            one deployment; [defaults] are the configured settings to
            restore when an override is lifted *)
  }

  val static : t
  (** Observes but never acts. Bit-identical traces to the undefended
      fixed schedule — CI-pinned. *)

  val alarm_rekey : t
  (** While rekey-staleness or invalid-probe-rate alarms fire, halve the
      rekey period and force an immediate rekey; restore the configured
      period after two quiet boundaries. The counter to the attacker's
      [stale-key-rush]. *)

  val threshold_tightener : t
  (** Under blocked-source or invalid-probe alarms, drop the proxy
      suspicion threshold to 1 (sources burn after two invalid requests
      per window — effective kappa collapses); relax to the configured
      threshold after three quiet boundaries. *)

  val builtins : t list
  (** Heuristic built-ins only; [Mdp.strategy] adds the lookup-table
      policy. *)

  val names : string list
  val find : string -> t option
end

type t

val launch :
  engine:Fortress_sim.Engine.t ->
  signal:Fortress_obs.Signal.t ->
  period:float ->
  defaults:defaults ->
  actuator:actuator ->
  Strategy.t ->
  t
(** Arm the boundary loop: every [period] the controller observes,
    decides, and applies staged directives. The [signal] should be
    attached with alarms {e not} re-emitted onto the sink
    ([Engine.attach_telemetry ~alarms:false]) so attaching a controller that
    never acts leaves the trace byte-identical. *)

val stage : t -> Defense_directive.t -> unit
(** Stage a directive externally (tests, manual operators). Field-wise
    last-wins against anything already staged; applied only at the next
    boundary. *)

type settings = { mutable rekey_period : float; mutable threshold : int }

val settings : t -> settings
(** Snapshot of the live settings the actuator has been driven to. *)

val name : t -> string
val defaults : t -> defaults
val effective_rekey_period : t -> float
val effective_threshold : t -> int
val steps_completed : t -> int

val directives_applied : t -> int
(** Boundaries at which at least one setting actually moved (or a boost
    fired); each emitted one [Event.Directive] with strategy
    ["defender:<name>"]. *)
