module Strategy = struct
  type decide = Observation.t -> Directive.t

  type t = {
    name : string;
    describe : string;
    make : default_kappa:float -> decide;
  }

  let oblivious =
    {
      name = "oblivious";
      describe = "observes but never acts; bit-identical to the fixed schedule";
      make = (fun ~default_kappa:_ _obs -> Directive.unchanged);
    }

  (* While the server key is provably stale — probes keep landing and the
     attacker's eliminations keep accumulating with no reset — pour the
     whole indirect budget at the server tier; back off to the configured
     kappa as soon as a rekey is observed again. *)
  let stale_key_rush =
    {
      name = "stale-key-rush";
      describe = "raises kappa to 1 while the server rekey is provably missed";
      make =
        (fun ~default_kappa ->
          let rushing = ref false in
          fun obs ->
            if obs.Observation.stale_steps >= 1 && not !rushing then begin
              rushing := true;
              Directive.make ~kappa:1.0 ()
            end
            else if obs.Observation.stale_steps = 0 && !rushing then begin
              rushing := false;
              Directive.make ~kappa:default_kappa ()
            end
            else Directive.unchanged);
    }

  (* Steer probes away from nodes whose requests timed out during the
     step; lift the exclusion when they answer again. *)
  let partition_follower =
    {
      name = "partition-follower";
      describe = "redirects probes away from unreachable nodes";
      make =
        (fun ~default_kappa:_ ->
          let current = ref [] in
          fun obs ->
            let seen = obs.Observation.unreachable in
            if seen = !current then Directive.unchanged
            else begin
              current := seen;
              Directive.make ~exclude:seen ()
            end);
    }

  (* The moment a source is burned the proxies' suspicion window is
     evidently biting: switch probe pacing to rate-limited mode (stay
     below the per-window threshold the burn reveals) and return to
     uniform pacing after three steps with no further burns. Exercises
     the [Pacing] plumbing end to end — the defender's threshold knob
     and this strategy are duals. *)
  let probe_pacer =
    {
      name = "probe-pacer";
      describe = "rate-limits probes below the suspicion window after a source burns";
      make =
        (fun ~default_kappa:_ ->
          let pacing = ref false and quiet = ref 0 in
          fun obs ->
            if obs.Observation.sources_burned > 0 then begin
              quiet := 0;
              if !pacing then Directive.unchanged
              else begin
                pacing := true;
                Directive.make
                  ~pacing:(Pacing.Below_threshold { window = 100.0; threshold = 8 })
                  ()
              end
            end
            else if !pacing then begin
              incr quiet;
              if !quiet >= 3 then begin
                pacing := false;
                quiet := 0;
                Directive.make ~pacing:Pacing.Uniform ()
              end
              else Directive.unchanged
            end
            else Directive.unchanged);
    }

  let builtins = [ oblivious; stale_key_rush; partition_follower; probe_pacer ]
  let names = List.map (fun s -> s.name) builtins
  let find name = List.find_opt (fun s -> s.name = name) builtins
end
