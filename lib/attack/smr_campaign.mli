(** Attack campaign against the 1-tier SMR system (the paper's S0).

    S0's replicas are directly reachable, so every channel is a direct
    attack: each replica gets its own omega-probe stream per unit
    time-step against its own key. The system falls when more than f
    replicas are compromised {e simultaneously} — under proactive
    obfuscation a compromised replica is evicted (and re-keyed) when its
    batch cycles, so the attacker must land its second intrusion while the
    first still stands. Run together with the deployment's daemon,
    {!Fortress_core.Smr_deployment.obfuscate}.

    Takes the same [?strategy] as {!Campaign.launch} and stages directives
    the same way ({!stage}); since S0 has no indirect channel, only the
    exclusion field of a {!Directive.t} acts — the others are inert. A
    campaign with no strategy and no staged directive is bit-identical to
    the fixed-schedule attacker. *)

type config = {
  omega : int;
  period : float;
  target_mode : Fortress_core.Obfuscation.mode;
  seed : int;
}

val default_config : config
(** omega 64, period 100.0, PO, seed 0. *)

val make_config :
  ?omega:int ->
  ?period:float ->
  ?target_mode:Fortress_core.Obfuscation.mode ->
  seed:int ->
  unit ->
  config
(** Smart constructor over {!default_config}. Prefer this to bare record
    literals. *)

type t

val launch : ?strategy:Adaptive.Strategy.t -> Fortress_core.Smr_deployment.t -> config -> t
(** Arm the campaign on the deployment's engine. With [~strategy], each
    boundary stages the strategy's answer to one {!Observation.t}, and
    reachability is sampled at probe times. *)

val run_until_compromise : t -> max_steps:int -> int option

val stats : t -> Campaign_intf.Stats.t
(** All probes are direct here; the indirect/launchpad/source counters are
    0 by construction. Replaces the per-counter getters this module used
    to export. *)

val current_step : t -> int

val stage : t -> Directive.t -> unit
(** Queue a directive for the next step boundary; only the [exclude] field
    has effect on S0. *)

val excluded_replicas : t -> int list
(** Replica indices probes are currently steered away from. *)
