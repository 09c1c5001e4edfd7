(* Adaptive-attacker determinism suite: the oblivious strategy must be
   byte-identical to the legacy fixed-schedule campaign, directives must
   act only at step boundaries, and stale-key-rush must strictly lower EL
   under the chaos rung (where the rekey daemon is wedged). *)

open Fortress_attack
module Inject = Fortress_exp.Inject
module Plan = Fortress_faults.Plan
module Deployment = Fortress_core.Deployment
module Smr_deployment = Fortress_core.Smr_deployment
module Obfuscation = Fortress_core.Obfuscation
module Keyspace = Fortress_defense.Keyspace
module Stats = Campaign_intf.Stats

let small_config ~jobs =
  { Inject.default_config with trials = 6; chi = 128; seed = 42; jobs; max_steps = 200 }

(* ---- oblivious is the fixed schedule, to the byte ---- *)

let test_oblivious_bit_identical_to_legacy () =
  let cfg = small_config ~jobs:1 in
  let legacy = Inject.run_plan cfg Plan.chaos in
  let oblivious = Inject.run_plan ~strategy:Adaptive.Strategy.oblivious cfg Plan.chaos in
  Alcotest.(check string) "same trace digest" legacy.Inject.digest oblivious.Inject.digest;
  Alcotest.(check (float 1e-9)) "same mean EL"
    (Inject.mean_el cfg legacy) (Inject.mean_el cfg oblivious);
  Alcotest.(check int) "no directives ever applied" 0 oblivious.Inject.directives

let test_oblivious_jobs_invariant () =
  let r1 = Inject.run_plan ~strategy:Adaptive.Strategy.oblivious (small_config ~jobs:1) Plan.chaos in
  let r4 = Inject.run_plan ~strategy:Adaptive.Strategy.oblivious (small_config ~jobs:4) Plan.chaos in
  Alcotest.(check string) "digest invariant in jobs" r1.Inject.digest r4.Inject.digest

let test_adaptive_jobs_invariant () =
  let r1 =
    Inject.run_plan ~strategy:Adaptive.Strategy.stale_key_rush (small_config ~jobs:1) Plan.chaos
  in
  let r4 =
    Inject.run_plan ~strategy:Adaptive.Strategy.stale_key_rush (small_config ~jobs:4) Plan.chaos
  in
  Alcotest.(check string) "digest invariant in jobs" r1.Inject.digest r4.Inject.digest

(* ---- stale-key-rush beats oblivious where the rekey daemon is wedged ---- *)

let test_stale_key_rush_lowers_el_under_chaos () =
  let cfg = { (small_config ~jobs:4) with trials = 12; chi = 256; max_steps = 400 } in
  let oblivious = Inject.run_plan cfg Plan.chaos in
  let rush = Inject.run_plan ~strategy:Adaptive.Strategy.stale_key_rush cfg Plan.chaos in
  let el_obl = Inject.mean_el cfg oblivious and el_rush = Inject.mean_el cfg rush in
  Alcotest.(check bool)
    (Printf.sprintf "rush EL %.1f < oblivious EL %.1f" el_rush el_obl)
    true (el_rush < el_obl);
  Alcotest.(check bool) "the rush actually adapted" true (rush.Inject.directives > 0)

(* ---- the SMR stack accepts the same plans and strategies ---- *)

let test_smr_plan_runs_and_is_jobs_invariant () =
  let cfg = small_config ~jobs:1 in
  let r1 = Inject.run_smr_plan ~strategy:Adaptive.Strategy.partition_follower cfg Plan.partition in
  let r4 =
    Inject.run_smr_plan ~strategy:Adaptive.Strategy.partition_follower
      (small_config ~jobs:4) Plan.partition
  in
  Alcotest.(check string) "digest invariant in jobs" r1.Inject.digest r4.Inject.digest;
  Alcotest.(check bool) "timeline actions actually fired" true
    (r1.Inject.faults.Fortress_faults.Injector.timeline_fired > 0)

let test_smr_oblivious_matches_legacy () =
  let cfg = small_config ~jobs:1 in
  let legacy = Inject.run_smr_plan cfg Plan.crashy in
  let oblivious =
    Inject.run_smr_plan ~strategy:Adaptive.Strategy.oblivious cfg Plan.crashy
  in
  Alcotest.(check string) "same trace digest" legacy.Inject.digest oblivious.Inject.digest

(* ---- directives act at step boundaries only ---- *)

let observed_deployment ?(keys = 1 lsl 12) ?(seed = 3) () =
  Deployment.create
    { Deployment.default_config with keyspace = Keyspace.of_size keys; seed }

(* Staging a directive mid-step must leave the live settings untouched
   until the engine crosses the next boundary, for any staging time within
   the step. qcheck drives the stage offset and the directive payload. *)
let prop_directive_applies_only_at_boundary =
  QCheck.Test.make ~count:30 ~name:"directive applies only at next boundary"
    QCheck.(pair (float_bound_exclusive 99.0) (float_bound_inclusive 0.9))
    (fun (offset, kappa) ->
      let offset = Float.max 0.1 offset in
      let d = observed_deployment () in
      ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
      let c =
        Campaign.launch ~strategy:Adaptive.Strategy.oblivious d
          (Campaign.make_config ~omega:4 ~kappa:0.5 ~period:100.0 ~seed:7 ())
      in
      let engine = Deployment.engine d in
      let module Engine = Fortress_sim.Engine in
      (* run into step 1, stage at [offset], check unchanged through the
         rest of the step, changed right after the boundary *)
      let start = Engine.now engine in
      Engine.run ~until:(start +. offset) engine;
      Campaign.stage c (Directive.make ~kappa ());
      let before = (Campaign.settings c).Campaign.kappa in
      Engine.run ~until:(start +. 99.9) engine;
      let still = (Campaign.settings c).Campaign.kappa in
      Engine.run ~until:(start +. 100.1) engine;
      let after = (Campaign.settings c).Campaign.kappa in
      before = 0.5 && still = 0.5 && after = kappa)

let test_staged_directive_merges_last_wins () =
  let d = observed_deployment () in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
  let c =
    Campaign.launch ~strategy:Adaptive.Strategy.oblivious d
      (Campaign.make_config ~omega:4 ~kappa:0.5 ~period:100.0 ~seed:7 ())
  in
  let engine = Deployment.engine d in
  let module Engine = Fortress_sim.Engine in
  Engine.run ~until:(Engine.now engine +. 10.0) engine;
  Campaign.stage c (Directive.make ~kappa:0.9 ~launchpad:Directive.Next_step ());
  Campaign.stage c (Directive.make ~kappa:0.2 ());
  Engine.run ~until:(Engine.now engine +. 100.0) engine;
  let s = Campaign.settings c in
  Alcotest.(check (float 1e-9)) "later kappa wins" 0.2 s.Campaign.kappa;
  Alcotest.(check bool) "earlier launchpad survives" true
    (s.Campaign.launchpad = Campaign.Next_step)

let test_oblivious_campaign_settings_never_move () =
  let d = observed_deployment () in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
  let c =
    Campaign.launch ~strategy:Adaptive.Strategy.oblivious d
      (Campaign.make_config ~omega:4 ~kappa:0.5 ~period:100.0 ~seed:7 ())
  in
  ignore (Campaign.run_until_compromise c ~max_steps:20);
  let s = Campaign.settings c in
  Alcotest.(check (float 1e-9)) "kappa untouched" 0.5 s.Campaign.kappa;
  Alcotest.(check bool) "no exclusions" true (s.Campaign.excluded = []);
  Alcotest.(check int) "no directives" 0 (Campaign.stats c).Stats.directives_applied

(* ---- the same staging on S0, where only exclusions act ---- *)

let observed_smr_campaign () =
  let d =
    Smr_deployment.create
      { Smr_deployment.default_config with keyspace = Keyspace.of_size (1 lsl 12); seed = 3 }
  in
  ignore (Smr_deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
  let c =
    Smr_campaign.launch ~strategy:Adaptive.Strategy.oblivious d
      (Smr_campaign.make_config ~omega:4 ~seed:7 ())
  in
  (Smr_deployment.engine d, c)

let test_smr_staged_exclusions_last_wins () =
  let module Engine = Fortress_sim.Engine in
  let module N = Fortress_model.Node_id in
  let engine, c = observed_smr_campaign () in
  Engine.run ~until:(Engine.now engine +. 10.0) engine;
  Smr_campaign.stage c (Directive.make ~exclude:[ N.Replica 0; N.Replica 1 ] ());
  Smr_campaign.stage c (Directive.make ~exclude:[ N.Replica 2 ] ());
  Alcotest.(check (list int)) "nothing moves mid-step" [] (Smr_campaign.excluded_replicas c);
  Engine.run ~until:(Engine.now engine +. 100.0) engine;
  Alcotest.(check (list int)) "later exclusion wins" [ 2 ] (Smr_campaign.excluded_replicas c);
  Alcotest.(check int) "one directive applied" 1
    (Smr_campaign.stats c).Stats.directives_applied

let test_smr_kappa_only_stage_is_inert () =
  let module Engine = Fortress_sim.Engine in
  let engine, c = observed_smr_campaign () in
  let directive_events = ref 0 in
  ignore
    (Fortress_obs.Sink.attach (Engine.sink engine) (fun ~time:_ -> function
       | Fortress_obs.Event.Directive _ -> incr directive_events
       | _ -> ()));
  Engine.run ~until:(Engine.now engine +. 10.0) engine;
  Smr_campaign.stage c (Directive.make ~kappa:0.9 ());
  Engine.run ~until:(Engine.now engine +. 100.0) engine;
  Alcotest.(check int) "no Directive event" 0 !directive_events;
  Alcotest.(check int) "no directive applied" 0
    (Smr_campaign.stats c).Stats.directives_applied

(* ---- node-id round-trips (digest stability for satellite 3) ---- *)

let test_node_id_round_trip () =
  let module N = Fortress_model.Node_id in
  List.iter
    (fun n ->
      match N.of_string (N.to_string n) with
      | Some n' -> Alcotest.(check bool) (N.to_string n ^ " round-trips") true (N.equal n n')
      | None -> Alcotest.fail ("failed to parse " ^ N.to_string n))
    [ N.Server 0; N.Server 12; N.Proxy 3; N.Replica 2; N.Nameserver ];
  (* the legacy fault-event spellings are preserved verbatim *)
  Alcotest.(check string) "server spelling" "server2" (N.to_string (N.Server 2));
  Alcotest.(check string) "proxy spelling" "proxy0" (N.to_string (N.Proxy 0));
  Alcotest.(check string) "nameserver spelling" "nameserver" (N.to_string N.Nameserver);
  Alcotest.(check bool) "junk rejected" true (N.of_string "sideways9" = None)

let () =
  Alcotest.run "fortress_adaptive"
    [
      ( "oblivious-anchor",
        [
          Alcotest.test_case "bit-identical to legacy" `Quick
            test_oblivious_bit_identical_to_legacy;
          Alcotest.test_case "jobs invariant" `Quick test_oblivious_jobs_invariant;
          Alcotest.test_case "settings never move" `Quick
            test_oblivious_campaign_settings_never_move;
        ] );
      ( "adaptation",
        [
          Alcotest.test_case "stale-key-rush lowers EL under chaos" `Slow
            test_stale_key_rush_lowers_el_under_chaos;
          Alcotest.test_case "adaptive jobs invariant" `Quick test_adaptive_jobs_invariant;
        ] );
      ( "smr-stack",
        [
          Alcotest.test_case "plans fold onto S0 and stay invariant" `Quick
            test_smr_plan_runs_and_is_jobs_invariant;
          Alcotest.test_case "oblivious matches legacy on S0" `Quick
            test_smr_oblivious_matches_legacy;
        ] );
      ( "boundaries",
        [
          QCheck_alcotest.to_alcotest prop_directive_applies_only_at_boundary;
          Alcotest.test_case "staged merge, last wins" `Quick
            test_staged_directive_merges_last_wins;
          Alcotest.test_case "S0 staged exclusions, last wins" `Quick
            test_smr_staged_exclusions_last_wins;
          Alcotest.test_case "S0 kappa-only stage is inert" `Quick
            test_smr_kappa_only_stage_is_inert;
        ] );
      ( "node-id",
        [ Alcotest.test_case "string round-trip" `Quick test_node_id_round_trip ] );
    ]
