(** Probe-level Monte-Carlo: the attack is simulated probe by probe against
    real randomized instances ({!Fortress_defense.Instance}) with real key
    spaces, using the attacker-side bookkeeping from
    {!Fortress_attack.Knowledge}.

    This is the highest-fidelity, slowest tier: alpha is not a parameter
    but an {e emergent} quantity, alpha = omega / chi, so agreement with
    the step-level samplers and the analytic models validates exactly the
    derivation the paper's evaluation rests on. Launch-pad timing is exact:
    a proxy captured by its m-th probe of a step attacks the server with
    the remaining omega - m probes of that step. *)

type mode = PO | SO

type config = {
  chi : int;  (** key-space size *)
  omega : int;  (** probes per channel per unit time-step *)
  kappa : float;
  np : int;
  mode : mode;
  launchpad : Fortress_model.Systems.launchpad;
  max_steps : int;
}

val default : config
(** chi 4096, omega 8 (so alpha ~ 2e-3), kappa 0.5, np 3, PO, Remaining,
    horizon 200_000. *)

val alpha_of : config -> float
(** The emergent per-step success probability omega / chi. *)

val lifetime :
  Fortress_model.Systems.system -> config -> Fortress_util.Prng.t -> int option
(** One end-to-end trial. S0 uses 4 diversely keyed instances probed by a
    shared request stream; S1 one shared key; S2 the full proxy/server key
    layout with indirect and launch-pad streams. Raises [Invalid_argument]
    on a config out of range, including a [chi] smaller than the distinct
    keys the system draws: 4 for S0, [np + 1] for S2. *)

val estimate :
  ?sink:Fortress_obs.Sink.t ->
  ?jobs:int ->
  ?trials:int ->
  ?seed:int ->
  Fortress_model.Systems.system ->
  config ->
  Trial.result
(** [jobs] fans the trials out over domains ({!Trial.run}); estimates are
    bit-identical for every job count. *)
