(** The adaptive attacker's strategy catalogue.

    A strategy closes an observe–decide–act loop over either campaign:
    pass one to {!Campaign.launch} or {!Smr_campaign.launch} as
    [~strategy]. Each step boundary the campaign hands the strategy one
    {!Observation.t} assembled from attacker-plausible signals only (probe
    bookkeeping, blocked-source feedback, inferred key staleness, request
    timeouts — see DESIGN.md section 10). The strategy answers with a
    {!Directive.t}; non-trivial directives are staged and folded into the
    campaign's live settings at the {e next} boundary. Decisions never
    touch the engine mid-step, consume no PRNG, and emit events only when
    a setting actually moves, so

    - {!Strategy.oblivious} is bit-identical to the fixed-schedule
      campaign (the regression anchor), and
    - every strategy is deterministic and job-count invariant.

    On the SMR campaign only the exclusion field of a directive acts, so
    {!Strategy.partition_follower} is the interesting strategy there; the
    others degrade gracefully to oblivious behaviour. *)

module Strategy : sig
  type decide = Observation.t -> Directive.t

  type t = {
    name : string;  (** CLI name, e.g. ["stale-key-rush"] *)
    describe : string;  (** one-line help text *)
    make : default_kappa:float -> decide;
        (** build a fresh decide function (with fresh internal state) for
            one campaign; [default_kappa] is the config value to restore
            when an override is lifted *)
  }

  val oblivious : t
  (** Observes but never acts. Bit-identical traces to the fixed schedule. *)

  val stale_key_rush : t
  (** While the server key is provably stale (probes keep landing and the
      elimination count never resets — e.g. chaos has wedged the
      obfuscation coordinator), pour the whole indirect budget at the
      server tier ([kappa -> 1]); restore the configured kappa on the
      next observed rekey. *)

  val partition_follower : t
  (** Steer probes away from nodes whose requests timed out during the
      step; lift the exclusion once they answer again. Matters under
      partition plans, where probes at unreachable proxies are wasted
      budget. *)

  val probe_pacer : t
  (** After a source burns, switch probe pacing to
      [Pacing.Below_threshold] (stay under the suspicion window the burn
      reveals); return to uniform pacing after three steps without a
      burn. The dual of the defender's threshold-tightener. *)

  val builtins : t list
  val names : string list
  val find : string -> t option
end
