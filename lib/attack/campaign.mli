(** A full attack campaign against a FORTRESS {!Fortress_core.Deployment}.

    The campaign runs on the deployment's simulation engine in unit
    time-steps aligned with the obfuscation schedule. In every step the
    attacker

    - launches up to [omega] {e direct} probes at each proxy (proxies are
      the only reachable nodes; with [np = 0] the servers are reachable and
      probed directly instead),
    - launches up to [kappa * omega] {e indirect} probes at the server key
      through the proxies, each of which the handling proxy logs as an
      invalid request — enough of them and the source gets blocked, which
      is the mechanism that forces kappa below 1 in the first place, and
    - on compromising a proxy, escalates: with [`Within_step] discipline
      the rest of that proxy's probe budget for the step is redirected at
      the server over the captured launch pad; with [`Next_step] the
      escalation only starts at the following step (where PO has already
      evicted the intruder — making launch pads useless, which is exactly
      the modelling difference ablation A3 measures).

    The campaign ends when {!Fortress_core.Deployment.system_compromised}
    first holds; the step index at that moment is the system's lifetime.

    {2 Adaptive attackers}

    Launch with [~strategy] (an {!Adaptive.Strategy.t}) to close the
    observe–decide–act loop: at each step boundary the campaign hands the
    strategy one {!Observation.t} and {!stage}s the {!Directive.t} it
    answers with. Staged directives are folded into the live settings
    {e only at the next step boundary}. Between boundaries the schedule is
    exactly the fixed one, which keeps adaptive runs deterministic and
    job-count invariant. A campaign launched without a strategy installs
    no hook and samples no symptoms; with no staged directive either, it
    is bit-identical — every event, PRNG draw, and schedule time — to the
    fixed-schedule attacker, and so is one running
    {!Adaptive.Strategy.oblivious}. *)

type launchpad = Directive.launchpad = Within_step | Next_step

type config = {
  omega : int;  (** probes per target per unit time-step *)
  kappa : float;  (** indirect-attack coefficient the attacker can sustain *)
  period : float;  (** the unit time-step; align with the obfuscation period *)
  pacing : Pacing.t;  (** how probes are laid out within each step *)
  launchpad : launchpad;
  target_mode : Fortress_core.Obfuscation.mode;
      (** what the attacker assumes about the defender's schedule: under PO
          it discards eliminated keys at each boundary, under SO it keeps
          them *)
  rotate_sources : bool;
      (** register a fresh source address whenever one gets blocked *)
  seed : int;
}

val default_config : config
(** omega 64, kappa 0.5, period 100.0, uniform pacing, Within_step, PO,
    rotate, seed 0. *)

val make_config :
  ?omega:int ->
  ?kappa:float ->
  ?period:float ->
  ?pacing:Pacing.t ->
  ?launchpad:launchpad ->
  ?target_mode:Fortress_core.Obfuscation.mode ->
  ?rotate_sources:bool ->
  seed:int ->
  unit ->
  config
(** Smart constructor over {!default_config}. Prefer this to bare record
    literals: new fields get defaults instead of breaking every caller. *)

type t

val launch : ?strategy:Adaptive.Strategy.t -> Fortress_core.Deployment.t -> config -> t
(** Arm the campaign on the deployment's engine; run the engine to make it
    progress. Raises [Invalid_argument] unless [omega > 0] and
    [kappa] is in [0,1].

    With [~strategy], each boundary builds an {!Observation.t} and stages
    the strategy's answer; the strategy's name tags the
    {!Fortress_obs.Event.Directive} events. It also turns on mid-step
    symptom sampling: pure reads of the deployment's
    {{!Fortress_core.Deployment.symptoms} symptom surface} at probe times,
    since partition windows can heal before the boundary. *)

val run_until_compromise : t -> max_steps:int -> int option
(** Drive the engine until the system is compromised or [max_steps] whole
    steps have elapsed. Returns the 1-based step of compromise. *)

val stats : t -> Campaign_intf.Stats.t
(** One snapshot of every campaign counter. Replaces the per-counter
    getters ([direct_probes_sent], [indirect_probes_sent], ...) this
    module used to export. *)

val current_step : t -> int
(** The 1-based step currently in progress. *)

val config : t -> config

val effective_kappa : t -> float
(** Delivered indirect probes over [kappa * omega * steps]: how much of the
    attacker's intended indirect rate survived proxy detection. *)

(** {2 Staging directives}

    Used by the [~strategy] loop; exposed so tests can assert the
    boundary-only application property directly. *)

val stage : t -> Directive.t -> unit
(** Queue a directive for the next step boundary. Staging
    {!Directive.unchanged} is a no-op; staging twice in one step merges
    field-wise with the later stage winning ({!Directive.merge}). Nothing
    changes until the boundary. *)

type live_settings = {
  kappa : float;
  pacing : Pacing.t;
  launchpad : launchpad;
  excluded : int list;  (** proxy indices currently steered away from *)
}

val settings : t -> live_settings
(** The settings the arm loop is reading {e right now} — directives staged
    but not yet applied are invisible here. *)
