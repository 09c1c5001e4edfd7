(** Fault-injection campaigns: expected lifetime and availability under the
    built-in fault plans, against a fault-free baseline.

    Every plan replays the same per-trial seed sequence — derived from the
    trial index, never from execution order — so the reported deltas are
    paired comparisons: the organic randomness (latencies, key draws,
    attacker behaviour) is identical across plans, and only the injected
    faults differ. Each trial folds its full event trace — including every
    injected-fault event — into an FNV-1a digest, and the run digest folds
    the per-trial digests in trial-index order; identical (plan, seed,
    config) reproduce it bit for bit, at any job count.

    Passing [?strategy] lets that {!Fortress_attack.Adaptive.Strategy}
    steer the campaign's observe–decide–act loop; the report then
    carries an {!adapt} section comparing the strategy against the
    oblivious reference on the same paired seeds. Passing [?defender]
    symmetrically arms a {!Fortress_defense.Controller} over the trial's
    telemetry plane, wired by {!Fortress_core.Defense_control.attach} over
    the trial's {!Stack_driver} stack, where it turns the deployment's own
    obfuscation daemon; the report then carries a {!defend} section
    against the static reference.
    {!run_game} runs the full attacker x defender cross. *)

type config = {
  trials : int;
  chi : int;  (** key-space size *)
  omega : int;  (** probes per channel per step *)
  kappa : float;
  max_steps : int;  (** campaign horizon in unit time-steps *)
  seed : int;
  jobs : int;  (** trial-level parallelism; results are job-count invariant *)
  load : Fortress_load.Workload.spec option;
      (** when [Some spec], attach the {!Fortress_load.Workload} plane —
          a seeded open- or closed-loop generator with batch-weighted
          latency accounting — to every trial, on either stack; its
          logical requests join the availability denominator. [None]
          (the default) attaches nothing and leaves every output
          byte-identical to a load-free build. *)
  telemetry : float option;
      (** when [Some width], pool every trial's event stream (replayed at
          the join in trial-index order via [Sink.buffered]) into a
          {!Fortress_obs.Timeline} of [width]-wide windows and score the
          defender signals over it; [None] (the default) attaches nothing
          and leaves every output byte-identical to a telemetry-free
          build *)
  causal : bool;
      (** when true, every trial's engine gets a causal trace context
          (trace id derived from the trial index, so span ids are unique
          across the pooled stream and invariant under [jobs]) plus its
          own alarm-emitting telemetry plane, and the run extracts
          {!Fortress_obs.Latency} chains per trial; [false] (the default)
          opens no span anywhere and leaves every output byte-identical
          to a causal-free build *)
}

val default_config : config
(** trials 12, chi 256, omega 8, kappa 0.5, horizon 400 steps, seed 1,
    jobs 1, telemetry and causal tracing off — the protocol-validation
    operating point. A stack with a default workload (FORTRESS) gets one
    availability probe every 20 time units in every trial. *)

type run = {
  plan_name : string;
  el : Fortress_mc.Trial.result;
  requests_issued : int;
  requests_answered : int;
  availability : float option;
      (** answered / issued, pooled over all trials; [None] when the run
          issued no requests at all (the SMR path without {!config.load}),
          rather than a fabricated perfect score *)
  load : Fortress_load.Workload.stats option;
      (** workload-plane accounting — logical counts and the latency
          histogram — merged over all trials in trial-index order;
          present when {!config.load} was set *)
  faults : Fortress_faults.Injector.stats;  (** summed over all trials *)
  directives : int;
      (** adaptive directives applied, summed over all trials; 0 on the
          fixed-schedule path *)
  defender_directives : int;
      (** defender directives applied, summed over all trials; 0 without
          a controller (and, by the static conformance contract, with the
          [static] one) *)
  digest : string;
      (** FNV-1a fold, in trial-index order, of the per-trial trace
          digests *)
  telemetry : (Fortress_obs.Timeline.t * Fortress_obs.Signal.t) option;
      (** the pooled timeline and its scored signals, present when
          {!config.telemetry} was set. The timeline aggregates every
          trial's stream (virtual time restarts each trial, so a window
          pools the same phase of all trials) and is identical at every
          job count. Detector alarms are appended to the run's [?sink]
          after the replayed streams, in window order. *)
  latency : Fortress_obs.Latency.t option;
      (** detection / reaction / stall-rekey chains, extracted per trial
          and merged in trial-index order; present when {!config.causal}
          was set *)
}

val run_plan :
  ?sink:Fortress_obs.Sink.t ->
  ?causal_offset:int ->
  ?strategy:Fortress_attack.Adaptive.Strategy.t ->
  ?defender:Fortress_defense.Controller.Strategy.t ->
  config ->
  Fortress_faults.Plan.t ->
  run
(** [causal_offset] (default 0) shifts this run's causal trace ids so
    several plan runs sharing one pooled sink keep disjoint span-id
    blocks; {!run} sets it per plan automatically. *)

val run_smr_plan :
  ?sink:Fortress_obs.Sink.t ->
  ?causal_offset:int ->
  ?strategy:Fortress_attack.Adaptive.Strategy.t ->
  ?defender:Fortress_defense.Controller.Strategy.t ->
  config ->
  Fortress_faults.Plan.t ->
  run
(** The same plan folded onto the 1-tier SMR stack (S0) by
    {!Fortress_faults.Wiring.smr}. Without {!config.load} this path runs
    no client at all, so [availability] is [None]; with a load spec the
    workload plane drives the replicas and availability is measured, not
    fabricated. The defender steers the deployment's batched obfuscation
    daemon through the shared {!Fortress_core.Stack_intf.S} surface. *)

val find_defender : string -> Fortress_defense.Controller.Strategy.t option
(** The controller built-ins plus ["mdp"] (the value-iteration
    lookup-table policy over {!Fortress_defense.Mdp.default_model}). *)

val defender_names : string list

type adapt_row = {
  ar_plan : string;
  ar_oblivious_el : float;
  ar_adaptive_el : float;
  ar_delta : float;  (** adaptive minus oblivious; negative = attacker gained *)
  ar_directives : int;
}

type adapt = { strategy_name : string; rows : adapt_row list }

type defend_row = {
  dr_plan : string;
  dr_static_el : float;
  dr_defended_el : float;
  dr_delta : float;  (** defended minus static; positive = defender gained *)
  dr_static_avail : float option;
  dr_defended_avail : float option;
  dr_davail : float option;
      (** defended minus static; [None] when either side issued nothing *)
  dr_directives : int;  (** defender directives applied *)
}

type defend = { defender_name : string; drows : defend_row list }

type report = {
  config : config;
  baseline : run;
  runs : run list;
  adapt : adapt option;  (** present iff a strategy was requested *)
  defend : defend option;  (** present iff a defender was requested *)
}

val run :
  ?sink:Fortress_obs.Sink.t ->
  ?strategy:Fortress_attack.Adaptive.Strategy.t ->
  ?defender:Fortress_defense.Controller.Strategy.t ->
  ?stack:[ `Fortress | `Smr ] ->
  ?config:config ->
  plans:Fortress_faults.Plan.t list ->
  unit ->
  report
(** The baseline is always {!Fortress_faults.Plan.none}. With a strategy,
    [baseline] and [runs] are the adaptive runs and [adapt] compares them
    to an oblivious reference; the oblivious strategy reuses its own runs
    as the reference (it is bit-identical to the fixed schedule), any
    other strategy pays one extra fixed-schedule pass per plan. The
    defender section works the same way with the [static] controller in
    the reference role; each reference pass holds the other side's
    strategy fixed, so both sections report one-sided marginals. *)

val mean_el : config -> run -> float
(** Mean uncensored lifetime; an all-censored run counts as the horizon. *)

val el_means : report -> (string * float) list
(** Baseline first, then the requested plans in order. *)

val monotone_non_increasing : report -> bool
(** Whether EL never increases along [baseline :: runs] — the escalation
    property the built-in ladder is tuned for. *)

val table : report -> Fortress_util.Table.t
val fault_breakdown : report -> Fortress_util.Table.t
val adapt_table : adapt -> Fortress_util.Table.t
val defend_table : defend -> Fortress_util.Table.t

val timeline_table : run -> Fortress_util.Table.t option
(** One row per pooled window: each defender signal's raw value, which
    signals alarm, and the fault-plan actions that landed in the window —
    the fault-ladder profile the ROADMAP asks for. [None] when the run
    was made without telemetry. *)

val timeline_alarm_table : run -> Fortress_util.Table.t option

val latency_table : run -> Fortress_util.Table.t option
(** The detection-latency report: per-chain count, censored count, mean,
    p50/p90/p99 and max over the run's merged {!Fortress_obs.Latency}
    chains. [None] when the run was made without {!config.causal}. *)

val load_table : report -> Fortress_util.Table.t option
(** Service quality under load, one row per plan: logical issued /
    answered / timed-out counts, physical submissions, availability, and
    the virtual-time latency tail (p50 / p99 / p999) from the merged
    workload histograms. [None] when the report was made without
    {!config.load}. *)

(** {1 The 2x2 attacker/defender game} *)

type game_cell = {
  gc_plan : string;
  gc_attacker : string;
  gc_defender : string;
  gc_el : float;
  gc_availability : float option;
  gc_attack_directives : int;
  gc_defense_directives : int;
}

type game = {
  game_config : config;
  cells : game_cell list;  (** plan-major, attacker then defender within *)
  mdp_optimal : float;  (** model-level EL of the value-iteration policy *)
  mdp_static : float;  (** model-level EL of always-Hold *)
}

val run_game :
  ?config:config ->
  ?attackers:Fortress_attack.Adaptive.Strategy.t list ->
  ?defenders:Fortress_defense.Controller.Strategy.t list ->
  plans:Fortress_faults.Plan.t list ->
  unit ->
  game
(** The full attacker x defender cross on the FORTRESS stack — by default
    {oblivious, stale-key-rush} x {static, alarm-rekey} — over each plan
    on paired seeds, so cell deltas are paired comparisons. Telemetry is
    forced off (each cell's controller attaches its own signal plane
    in-trial). The MDP numbers are model-level expected lifetimes — the
    benchmark bound the simulated cells are read against, not a simulated
    quantity. *)

val game_table : game -> Fortress_util.Table.t
(** One row per cell; dEL / davail are against the static-defender cell
    for the same plan and attacker. *)
