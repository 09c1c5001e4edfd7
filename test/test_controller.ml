(* Adaptive-defender contract suite: the static controller must be
   byte-identical to the undefended run, directives must act only at
   controller boundaries, and the alarm-rekey strategy must provably
   shorten the rekey schedule when a staleness alarm fires. *)

open Fortress_defense
module Inject = Fortress_exp.Inject
module Plan = Fortress_faults.Plan
module Deployment = Fortress_core.Deployment
module Defense_control = Fortress_core.Defense_control
module Obfuscation = Fortress_core.Obfuscation
module Engine = Fortress_sim.Engine
module Sink = Fortress_obs.Sink
module Event = Fortress_obs.Event

let small_config ~jobs =
  { Inject.default_config with trials = 6; chi = 128; seed = 42; jobs; max_steps = 200 }

(* ---- static is the undefended run, to the byte ---- *)

let test_static_bit_identical_to_undefended () =
  let cfg = small_config ~jobs:1 in
  let plain = Inject.run_plan cfg Plan.chaos in
  let static = Inject.run_plan ~defender:Controller.Strategy.static cfg Plan.chaos in
  Alcotest.(check string) "same trace digest" plain.Inject.digest static.Inject.digest;
  Alcotest.(check (float 1e-9)) "same mean EL"
    (Inject.mean_el cfg plain) (Inject.mean_el cfg static);
  Alcotest.(check int) "no directives ever applied" 0 static.Inject.defender_directives

let test_static_jobs_invariant () =
  let r1 =
    Inject.run_plan ~defender:Controller.Strategy.static (small_config ~jobs:1) Plan.chaos
  in
  let r4 =
    Inject.run_plan ~defender:Controller.Strategy.static (small_config ~jobs:4) Plan.chaos
  in
  Alcotest.(check string) "digest invariant in jobs" r1.Inject.digest r4.Inject.digest

let test_defended_jobs_invariant () =
  let r1 =
    Inject.run_plan ~defender:Controller.Strategy.alarm_rekey (small_config ~jobs:1)
      Plan.chaos
  in
  let r4 =
    Inject.run_plan ~defender:Controller.Strategy.alarm_rekey (small_config ~jobs:4)
      Plan.chaos
  in
  Alcotest.(check string) "digest invariant in jobs" r1.Inject.digest r4.Inject.digest;
  Alcotest.(check bool) "the defender actually acted" true
    (r1.Inject.defender_directives > 0)

let test_smr_static_matches_undefended () =
  let cfg = small_config ~jobs:1 in
  let plain = Inject.run_smr_plan cfg Plan.crashy in
  let static = Inject.run_smr_plan ~defender:Controller.Strategy.static cfg Plan.crashy in
  Alcotest.(check string) "same trace digest" plain.Inject.digest static.Inject.digest

(* ---- directives act at controller boundaries only ---- *)

(* A bare controller over a bare engine: staging mid-step must leave the
   live settings untouched until the next boundary, for any staging time
   within the step and any payload. qcheck drives both. *)
let prop_directive_applies_only_at_boundary =
  QCheck.Test.make ~count:30 ~name:"defender directive applies only at next boundary"
    QCheck.(pair (float_bound_exclusive 99.0) (int_range 1 9))
    (fun (offset, threshold) ->
      let offset = Float.max 0.1 offset in
      let engine = Engine.create () in
      let _tl, signal = Engine.attach_telemetry ~alarms:false engine in
      let c =
        Controller.launch ~engine ~signal ~period:100.0
          ~defaults:{ Controller.rekey_period = 100.0; threshold = 50 }
          ~actuator:Controller.null_actuator Controller.Strategy.static
      in
      (* keep the queue non-empty so the engine can run past the horizon *)
      ignore (Engine.every engine ~period:10.0 (fun () -> ()));
      let start = Engine.now engine in
      Engine.run ~until:(start +. offset) engine;
      Controller.stage c (Defense_directive.make ~rekey_period:60.0 ~threshold ());
      let before =
        (Controller.effective_rekey_period c, Controller.effective_threshold c)
      in
      Engine.run ~until:(start +. 99.9) engine;
      let still =
        (Controller.effective_rekey_period c, Controller.effective_threshold c)
      in
      Engine.run ~until:(start +. 100.1) engine;
      let after =
        (Controller.effective_rekey_period c, Controller.effective_threshold c)
      in
      before = (100.0, 50) && still = (100.0, 50) && after = (60.0, threshold))

let test_staged_directive_merges_last_wins () =
  let engine = Engine.create () in
  let _tl, signal = Engine.attach_telemetry ~alarms:false engine in
  let c =
    Controller.launch ~engine ~signal ~period:100.0
      ~defaults:{ Controller.rekey_period = 100.0; threshold = 50 }
      ~actuator:Controller.null_actuator Controller.Strategy.static
  in
  ignore (Engine.every engine ~period:10.0 (fun () -> ()));
  Controller.stage c (Defense_directive.make ~rekey_period:60.0 ~threshold:7 ());
  (* the later stage wins field-wise: period overridden, threshold kept *)
  Controller.stage c (Defense_directive.make ~rekey_period:40.0 ());
  Engine.run ~until:(Engine.now engine +. 100.1) engine;
  Alcotest.(check (float 1e-9)) "later period wins" 40.0
    (Controller.effective_rekey_period c);
  Alcotest.(check int) "earlier threshold survives" 7 (Controller.effective_threshold c);
  Alcotest.(check int) "one applying boundary" 1 (Controller.directives_applied c)

(* ---- hand-verified alarm-rekey staleness trace ----

   Obfuscation period 100, telemetry window 100, daemon stalled at
   t = 150. The only real rekey is at t = 100 (window 1), so windows
   2, 3, 4, 5 — closing at t = 300..600 — score staleness 100, 200, 300,
   400 (windows since the last rekey window, times the width); the
   staleness CUSUM (slack 150, threshold 250) accumulates
   max(0, 100-150) = 0, then 50, 200, 450 — the alarm provably fires at
   the t = 600 close and at no earlier window. The obfuscation boundary
   (armed first) emits its stall-skip at t = 600, closing the window;
   the controller's boundary then observes the alarm, halves the period
   and forces an immediate rekey — landing at exactly t = 600, while the
   daemon is still wedged. *)
let test_alarm_rekey_staleness_trace () =
  let deployment =
    Deployment.create
      { Deployment.default_config with keyspace = Keyspace.of_size 4096; seed = 11 }
  in
  let engine = Deployment.engine deployment in
  let rekey_times = ref [] in
  ignore
    (Sink.attach (Engine.sink engine) (fun ~time ev ->
         match ev with Event.Rekey _ -> rekey_times := time :: !rekey_times | _ -> ()));
  let obfuscation = Deployment.obfuscate deployment ~mode:Obfuscation.PO ~period:100.0 in
  let c =
    Defense_control.attach
      (module Fortress_exp.Stack_driver.Fortress)
      deployment Controller.Strategy.alarm_rekey
  in
  ignore (Engine.schedule engine ~delay:150.0 (fun () -> Obfuscation.set_stalled obfuscation true));
  Engine.run ~until:599.0 engine;
  Alcotest.(check int) "no directive before the alarm window closes" 0
    (Controller.directives_applied c);
  Alcotest.(check (list (float 1e-9))) "only the t=100 rekey so far" [ 100.0 ]
    (List.rev !rekey_times);
  Engine.run ~until:601.0 engine;
  Alcotest.(check int) "alarm boundary applied a directive" 1
    (Controller.directives_applied c);
  Alcotest.(check (float 1e-9)) "rekey period halved" 50.0
    (Controller.effective_rekey_period c);
  Alcotest.(check (list (float 1e-9))) "forced rekey at the alarm boundary, mid-stall"
    [ 100.0; 600.0 ] (List.rev !rekey_times);
  (* the shortened schedule takes over once the daemon recovers: with the
     staleness signal quiet for two boundaries the period is restored *)
  Obfuscation.set_stalled obfuscation false;
  Engine.run ~until:1000.0 engine;
  Alcotest.(check (float 1e-9)) "restored after quiet boundaries" 100.0
    (Controller.effective_rekey_period c)

(* ---- the SMR boost bypasses a wedged daemon ---- *)

let test_smr_boost_while_stalled () =
  let module Smr = Fortress_exp.Stack_driver.Smr in
  let module Smr_deployment = Fortress_core.Smr_deployment in
  let d = Smr.make ~chi:64 ~seed:3 in
  Smr.start_obfuscation d ~period:100.0;
  let daemon = Option.get (Smr_deployment.obfuscation d) in
  Obfuscation.set_stalled daemon true;
  let engine = Smr.engine d in
  let epochs () = Array.map Instance.epoch (Smr_deployment.instances d) in
  Engine.run ~until:150.0 engine;
  let before = epochs () in
  Smr.rekey_now d;
  Engine.run ~until:250.0 engine;
  Alcotest.(check (array int)) "every batch rekeyed within one period"
    (Array.map succ before) (epochs ());
  Alcotest.(check int) "no periodic boundary ran" 0 (Obfuscation.steps_completed daemon);
  Alcotest.(check int) "the stalled boundaries were skipped" 2
    (Obfuscation.skipped_boundaries daemon)

(* ---- the MDP benchmark ---- *)

let test_mdp_policy_nontrivial_and_beats_static () =
  let m = Mdp.default_model in
  let sol = Mdp.solve m in
  let used =
    List.sort_uniq compare (Array.to_list (Array.map Mdp.action_name sol.Mdp.policy))
  in
  Alcotest.(check bool) "policy uses several actions" true (List.length used >= 3);
  Alcotest.(check string) "calm/fresh holds" "hold"
    (Mdp.action_name sol.Mdp.policy.(Mdp.state ~threat:0 ~stale:0));
  let optimal = Mdp.optimal_lifetime m and static = Mdp.static_lifetime m in
  Alcotest.(check bool)
    (Printf.sprintf "optimal EL %.1f > static EL %.1f" optimal static)
    true
    (optimal > static)

let test_find_defender_names () =
  List.iter
    (fun name ->
      Alcotest.(check bool) ("finds " ^ name) true (Inject.find_defender name <> None))
    Inject.defender_names;
  Alcotest.(check bool) "unknown rejected" true (Inject.find_defender "nope" = None)

let () =
  Alcotest.run "fortress_controller"
    [
      ( "conformance",
        [
          Alcotest.test_case "static bit-identical to undefended" `Quick
            test_static_bit_identical_to_undefended;
          Alcotest.test_case "static jobs invariant" `Quick test_static_jobs_invariant;
          Alcotest.test_case "alarm-rekey jobs invariant" `Quick
            test_defended_jobs_invariant;
          Alcotest.test_case "smr static matches undefended" `Quick
            test_smr_static_matches_undefended;
        ] );
      ( "boundaries",
        [
          QCheck_alcotest.to_alcotest prop_directive_applies_only_at_boundary;
          Alcotest.test_case "staged directives merge last-wins" `Quick
            test_staged_directive_merges_last_wins;
        ] );
      ( "alarm-rekey",
        [
          Alcotest.test_case "hand-verified staleness trace" `Quick
            test_alarm_rekey_staleness_trace;
          Alcotest.test_case "smr boost runs while stalled" `Quick test_smr_boost_while_stalled;
        ] );
      ( "mdp",
        [
          Alcotest.test_case "policy nontrivial, beats static" `Quick
            test_mdp_policy_nontrivial_and_beats_static;
          Alcotest.test_case "defender registry" `Quick test_find_defender_names;
        ] );
    ]
