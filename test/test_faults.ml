(* fortress_faults: plan validation, injector determinism, wiring of
   timeline actions into a live deployment, and the end-to-end properties
   the inject subcommand reports — trace-digest determinism and the EL
   escalation ordering of the built-in plan ladder. *)

module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Address = Fortress_net.Address
module Plan = Fortress_faults.Plan
module Injector = Fortress_faults.Injector
module Wiring = Fortress_faults.Wiring
module Deployment = Fortress_core.Deployment
module Obfuscation = Fortress_core.Obfuscation
module Instance = Fortress_defense.Instance
module Inject = Fortress_exp.Inject

(* ---- plans ---- *)

let test_builtins_validate () =
  List.iter Plan.validate Plan.builtins;
  Alcotest.(check int) "four hostile plans plus none" 5 (List.length Plan.builtins)

let test_find () =
  (match Plan.find "chaos" with
  | Some p -> Alcotest.(check string) "found by name" "chaos" p.Plan.name
  | None -> Alcotest.fail "chaos not found");
  Alcotest.(check bool) "unknown plan" true (Plan.find "zen" = None)

let invalid name f = Alcotest.check_raises name (Invalid_argument "probe") f

let expect_invalid name plan =
  match Plan.validate plan with
  | () -> Alcotest.fail (name ^ ": accepted")
  | exception Invalid_argument _ -> ()

let _ = invalid

let test_validation_rejects () =
  expect_invalid "drop rate above 1"
    { Plan.none with name = "bad"; link = { Plan.calm with drop = 1.5 } };
  expect_invalid "negative jitter"
    { Plan.none with name = "bad"; link = { Plan.calm with jitter = -0.1 } };
  expect_invalid "empty name" { Plan.none with name = "" };
  expect_invalid "entry in the past"
    { Plan.none with name = "bad"; timeline = [ Plan.once ~at:(-1.0) Plan.Heal_all ] };
  expect_invalid "non-positive period"
    {
      Plan.none with
      name = "bad";
      timeline = [ Plan.repeat ~at:1.0 ~every:0.0 Plan.Heal_all ];
    };
  expect_invalid "nameserver partition"
    {
      Plan.none with
      name = "bad";
      timeline = [ Plan.once ~at:1.0 (Plan.Partition (Plan.Nameserver, Plan.Server 0)) ];
    };
  expect_invalid "non-positive slowdown"
    { Plan.none with name = "bad"; timeline = [ Plan.once ~at:1.0 (Plan.Slowdown 0.0) ] }

(* ---- injector ---- *)

let verdict_repr = function
  | Network.Pass -> "pass"
  | Network.Drop r -> "drop:" ^ r
  | Network.Deliver ds ->
      String.concat ";"
        (List.map
           (fun d ->
             Printf.sprintf "%g%s" d.Network.extra_delay (if d.Network.corrupt then "!" else ""))
           ds)

let interceptor_trace ~seed n =
  let engine = Engine.create ~prng:(Fortress_util.Prng.create ~seed:0) () in
  let stats = Injector.fresh_stats () in
  let prng = Injector.derive_prng ~seed in
  let icpt = Injector.link_interceptor ~engine ~prng ~stats Plan.lossy.Plan.link in
  let a = Address.make 1 and b = Address.make 2 in
  List.init n (fun i -> verdict_repr (icpt ~src:a ~dst:b i))

let test_injector_deterministic () =
  let t1 = interceptor_trace ~seed:7 200 and t2 = interceptor_trace ~seed:7 200 in
  Alcotest.(check (list string)) "same seed, same verdicts" t1 t2;
  let t3 = interceptor_trace ~seed:8 200 in
  Alcotest.(check bool) "different seed diverges" true (t1 <> t3)

let test_injector_certain_drop () =
  let engine = Engine.create ~prng:(Fortress_util.Prng.create ~seed:0) () in
  let stats = Injector.fresh_stats () in
  let prng = Injector.derive_prng ~seed:1 in
  let icpt =
    Injector.link_interceptor ~engine ~prng ~stats { Plan.calm with drop = 1.0 }
  in
  let a = Address.make 1 and b = Address.make 2 in
  for i = 1 to 50 do
    match icpt ~src:a ~dst:b i with
    | Network.Drop _ -> ()
    | _ -> Alcotest.fail "drop = 1.0 let a message through"
  done;
  Alcotest.(check int) "stats count every drop" 50 stats.Injector.dropped;
  Alcotest.(check int) "drops are link faults" 50 (Injector.stats_total stats)

let test_injector_shares_link_labels () =
  (* a link's label is formatted at its first fault, then shared *)
  let engine = Engine.create ~prng:(Fortress_util.Prng.create ~seed:0) () in
  let targets = ref [] in
  ignore
    (Fortress_obs.Sink.attach (Engine.sink engine) (fun ~time:_ -> function
       | Fortress_obs.Event.Fault { target; _ } -> targets := target :: !targets
       | _ -> ()));
  let icpt =
    Injector.link_interceptor ~engine ~prng:(Injector.derive_prng ~seed:1)
      ~stats:(Injector.fresh_stats ()) { Plan.calm with drop = 1.0 }
  in
  let a = Address.make 3 and b = Address.make 12 in
  List.iter (fun (src, dst) -> ignore (icpt ~src ~dst 0)) [ (a, b); (b, a); (a, b) ];
  match !targets with
  | [ second; back; first ] ->
      Alcotest.(check string) "label names the link" "link 3->12" first;
      Alcotest.(check string) "reverse link has its own" "link 12->3" back;
      Alcotest.(check bool) "one string per link" true (first == second)
  | ts -> Alcotest.failf "expected 3 faults, saw %d" (List.length ts)

(* ---- wiring into a deployment ---- *)

let small_deployment seed =
  Deployment.create
    {
      Deployment.default_config with
      seed;
      keyspace = Fortress_defense.Keyspace.of_size 64;
    }

let test_wiring_none_is_inert () =
  let d = small_deployment 3 in
  let h = Wiring.install Plan.none (Wiring.fortress d) ~seed:3 in
  let c = Deployment.new_client d ~name:"c0" in
  for _ = 1 to 20 do
    ignore (Fortress_core.Client.submit c ~cmd:"get x" ~on_response:(fun _ -> ()))
  done;
  Engine.run ~until:50.0 (Deployment.engine d);
  Alcotest.(check int) "no injected link faults" 0 (Injector.stats_total (Wiring.stats h));
  Wiring.uninstall h

let test_wiring_unknown_target_rejected () =
  let d = small_deployment 3 in
  let plan =
    { Plan.none with name = "bad"; timeline = [ Plan.once ~at:1.0 (Plan.Crash (Plan.Server 9)) ] }
  in
  match Wiring.install plan (Wiring.fortress d) ~seed:3 with
  | _ -> Alcotest.fail "accepted a target outside the deployment"
  | exception Invalid_argument _ -> ()

let test_wiring_crash_restart_timeline () =
  let d = small_deployment 3 in
  let plan =
    {
      Plan.none with
      name = "flap";
      timeline =
        [ Plan.once ~at:10.0 (Plan.Crash (Plan.Server 0)); Plan.once ~at:20.0 (Plan.Restart (Plan.Server 0)) ];
    }
  in
  let h = Wiring.install plan (Wiring.fortress d) ~seed:3 in
  let engine = Deployment.engine d in
  let net = Deployment.network d in
  let s0 = (Deployment.server_addresses d).(0) in
  Engine.run ~until:15.0 engine;
  Alcotest.(check bool) "down after the crash entry" false (Network.is_up net s0);
  Engine.run ~until:25.0 engine;
  Alcotest.(check bool) "up after the restart entry" true (Network.is_up net s0);
  Alcotest.(check int) "both actions fired" 2 (Wiring.stats h).Injector.timeline_fired;
  Wiring.uninstall h

let test_rekey_skips_down_server () =
  let d = small_deployment 3 in
  let insts = Deployment.server_instances d in
  let crashed_key = Instance.key insts.(0) in
  Deployment.crash_server d 0;
  Deployment.rekey d;
  Alcotest.(check int) "down server kept its stale key" crashed_key (Instance.key insts.(0));
  Alcotest.(check bool) "up server was rekeyed" true (Instance.key insts.(1) <> crashed_key);
  Deployment.restart_server d 0;
  Deployment.rekey d;
  Alcotest.(check int) "rejoins the shared key after restart" (Instance.key insts.(1))
    (Instance.key insts.(0))

let test_stall_skips_boundaries () =
  let d = small_deployment 3 in
  let o = Deployment.obfuscate d ~mode:Obfuscation.PO ~period:10.0 in
  Obfuscation.set_stalled o true;
  Engine.run ~until:35.0 (Deployment.engine d);
  Alcotest.(check int) "no boundary completed" 0 (Obfuscation.steps_completed o);
  Alcotest.(check int) "three boundaries skipped" 3 (Obfuscation.skipped_boundaries o);
  Obfuscation.set_stalled o false;
  Engine.run ~until:45.0 (Deployment.engine d);
  Alcotest.(check int) "resumes after unwedging" 1 (Obfuscation.steps_completed o);
  Obfuscation.detach o

(* ---- the S0 fold: one plan, read onto the single replica tier ---- *)

module Smr_deployment = Fortress_core.Smr_deployment
module Event = Fortress_obs.Event

let small_smr seed =
  Smr_deployment.create
    { Smr_deployment.default_config with seed; keyspace = Fortress_defense.Keyspace.of_size 64 }

(* The (action, target) of every fault event emitted from now on. *)
let record_faults engine =
  let seen = ref [] in
  ignore
    (Fortress_obs.Sink.attach (Engine.sink engine) (fun ~time:_ -> function
       | Event.Fault { action; target; _ } -> seen := (action, target) :: !seen
       | _ -> ()));
  fun () -> List.rev !seen

let timeline name entries = { Plan.none with name; timeline = entries }

let test_smr_proxy_folds_onto_tail () =
  let d = small_smr 3 in
  let engine = Smr_deployment.engine d in
  let faults = record_faults engine in
  let plan =
    timeline "fold"
      [ Plan.once ~at:10.0 (Plan.Crash (Plan.Proxy 0)); Plan.once ~at:20.0 (Plan.Restart (Plan.Proxy 0)) ]
  in
  let h = Wiring.install plan (Wiring.smr d) ~seed:3 in
  let net = Smr_deployment.network d in
  let replica i = (Smr_deployment.addresses d).(i) in
  Engine.run ~until:15.0 engine;
  Alcotest.(check bool) "replica 3 down" false (Network.is_up net (replica 3));
  Alcotest.(check bool) "replica 0 untouched" true (Network.is_up net (replica 0));
  Alcotest.(check bool) "crash names replica3" true (List.mem ("crash", "replica3") (faults ()));
  Engine.run ~until:25.0 engine;
  Alcotest.(check bool) "replica 3 back up" true (Network.is_up net (replica 3));
  Alcotest.(check bool) "restart names replica3" true
    (List.mem ("restart", "replica3") (faults ()));
  Wiring.uninstall h

let test_smr_server_maps_to_replica () =
  let d = small_smr 3 in
  let engine = Smr_deployment.engine d in
  let faults = record_faults engine in
  let h =
    Wiring.install
      (timeline "server" [ Plan.once ~at:10.0 (Plan.Crash (Plan.Server 1)) ])
      (Wiring.smr d) ~seed:3
  in
  Engine.run ~until:15.0 engine;
  Alcotest.(check bool) "replica 1 down" false
    (Network.is_up (Smr_deployment.network d) (Smr_deployment.addresses d).(1));
  Alcotest.(check bool) "crash names replica1" true (List.mem ("crash", "replica1") (faults ()));
  Wiring.uninstall h

let test_smr_nameserver_skipped () =
  let d = small_smr 3 in
  let engine = Smr_deployment.engine d in
  let faults = record_faults engine in
  let h =
    Wiring.install
      (timeline "dns" [ Plan.once ~at:10.0 (Plan.Crash Plan.Nameserver) ])
      (Wiring.smr d) ~seed:3
  in
  Engine.run ~until:15.0 engine;
  Alcotest.(check (list (pair string string)))
    "one skip event" [ ("skip", "nameserver") ]
    (List.filter (fun (action, _) -> action = "skip") (faults ()));
  Alcotest.(check int) "still counts as fired" 1 (Wiring.stats h).Injector.timeline_fired;
  Wiring.uninstall h

let test_smr_absent_target_rejected () =
  let d = small_smr 3 in
  let sink = Engine.sink (Smr_deployment.engine d) in
  let before = Fortress_obs.Sink.emitted sink in
  (match
     Wiring.install
       (timeline "bad" [ Plan.once ~at:1.0 (Plan.Crash (Plan.Server 9)) ])
       (Wiring.smr d) ~seed:3
   with
  | _ -> Alcotest.fail "accepted a target that folds onto no replica"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "no event emitted" before (Fortress_obs.Sink.emitted sink)

(* ---- stall actions reach the deployment's own daemon ---- *)

(* Wedged from 150 to 450 at period 100: the boundaries at 200, 300 and
   400 are skipped, those at 100, 500 and 600 run. *)
let stall_window =
  timeline "stall-window"
    [ Plan.once ~at:150.0 Plan.Stall_obfuscation; Plan.once ~at:450.0 Plan.Resume_obfuscation ]

let run_stall_window engine wiring =
  let faults = record_faults engine in
  let h = Wiring.install stall_window wiring ~seed:3 in
  Engine.run ~until:650.0 engine;
  Wiring.uninstall h;
  faults ()

let check_wedged name daemon =
  Alcotest.(check int) (name ^ ": boundaries run") 3 (Obfuscation.steps_completed daemon);
  Alcotest.(check int) (name ^ ": boundaries skipped") 3 (Obfuscation.skipped_boundaries daemon)

let test_stall_reaches_fortress_daemon () =
  let d = small_deployment 3 in
  let daemon = Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0 in
  ignore (run_stall_window (Deployment.engine d) (Wiring.fortress d));
  check_wedged "fortress" daemon

let test_stall_reaches_smr_daemon () =
  let d = small_smr 3 in
  let daemon = Smr_deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0 in
  ignore (run_stall_window (Smr_deployment.engine d) (Wiring.smr d));
  check_wedged "smr" daemon

let test_stall_without_daemon () =
  let check name faults =
    Alcotest.(check bool) (name ^ ": stall event") true (List.mem ("stall", "obfuscation") faults);
    Alcotest.(check bool) (name ^ ": resume event") true
      (List.mem ("resume", "obfuscation") faults);
    Alcotest.(check bool) (name ^ ": no boundary skipped") false
      (List.mem ("stall_skip", "obfuscation") faults)
  in
  let d = small_deployment 3 in
  check "fortress" (run_stall_window (Deployment.engine d) (Wiring.fortress d));
  let s = small_smr 3 in
  check "smr" (run_stall_window (Smr_deployment.engine s) (Wiring.smr s))

(* ---- end-to-end: determinism and the escalation ladder ---- *)

let quick_config = { Inject.default_config with trials = 2; max_steps = 80; seed = 5 }

let test_digest_deterministic () =
  let r1 = Inject.run_plan quick_config Plan.chaos in
  let r2 = Inject.run_plan quick_config Plan.chaos in
  Alcotest.(check string) "same seed+plan, same digest" r1.Inject.digest r2.Inject.digest;
  let r3 = Inject.run_plan { quick_config with seed = 6 } Plan.chaos in
  Alcotest.(check bool) "different seed, different digest" true
    (r1.Inject.digest <> r3.Inject.digest);
  let r4 = Inject.run_plan quick_config Plan.lossy in
  Alcotest.(check bool) "different plan, different digest" true
    (r1.Inject.digest <> r4.Inject.digest)

let test_escalation_ordering () =
  let config = { Inject.default_config with trials = 6; seed = 42 } in
  let report =
    Inject.run ~config ~plans:[ Plan.lossy; Plan.partition; Plan.crashy; Plan.chaos ] ()
  in
  Alcotest.(check bool) "EL non-increasing along the ladder" true
    (Inject.monotone_non_increasing report);
  (* link-level noise must not decorrelate the runs: with the key stream
     and the attacker stream decoupled from the network, lossy and
     partition are pathwise identical to the baseline at this operating
     point *)
  match Inject.el_means report with
  | (_, base) :: (_, lossy) :: (_, part) :: _ ->
      Alcotest.(check (float 1e-9)) "lossy ties baseline exactly" base lossy;
      Alcotest.(check (float 1e-9)) "partition ties baseline exactly" base part
  | _ -> Alcotest.fail "report shape"

(* ---- causal tracing through inject ---- *)

module Latency = Fortress_obs.Latency
module Sink = Fortress_obs.Sink

let causal_config = { quick_config with causal = true }

let run_causal ~jobs =
  let sink = Sink.create () in
  let sub, read = Sink.memory () in
  ignore (Sink.attach sink sub);
  let r = Inject.run_plan ~sink { causal_config with jobs } Plan.chaos in
  (r, read ())

let test_causal_off_digest_unchanged () =
  let plain = Inject.run_plan quick_config Plan.chaos in
  let traced = Inject.run_plan causal_config Plan.chaos in
  Alcotest.(check bool) "latency present iff causal" true
    (plain.Inject.latency = None && traced.Inject.latency <> None);
  (* causal tracing is a pure observer: the simulated world is unchanged *)
  Alcotest.(check (float 1e-9)) "EL unchanged by tracing"
    (Inject.mean_el quick_config plain) (Inject.mean_el causal_config traced)

let test_causal_jobs_invariant () =
  let r1, ev1 = run_causal ~jobs:1 in
  let r4, ev4 = run_causal ~jobs:4 in
  Alcotest.(check string) "digest identical at jobs 1 vs 4" r1.Inject.digest r4.Inject.digest;
  Alcotest.(check int) "same pooled event count" (List.length ev1) (List.length ev4);
  let lines evs = List.map (fun (t, e) -> Sink.line ~time:t e) evs in
  Alcotest.(check bool) "pooled stream byte-identical" true (lines ev1 = lines ev4);
  let canon (r : Inject.run) =
    match r.Inject.latency with
    | None -> Alcotest.fail "latency missing"
    | Some l -> List.map (fun k -> (Latency.chains l k, Latency.censored l k)) Latency.kinds
  in
  Alcotest.(check bool) "latency chains identical" true (canon r1 = canon r4)

let test_causal_stream_carries_spans_and_chains () =
  let r, events = run_causal ~jobs:1 in
  let count name =
    List.length
      (List.filter
         (fun (_, ev) ->
           match ev with
           | Fortress_obs.Event.Span_finished { name = n; _ } -> n = name
           | _ -> false)
         events)
  in
  Alcotest.(check bool) "net.send spans present" true (count "net.send" > 0);
  Alcotest.(check bool) "net.deliver spans present" true (count "net.deliver" > 0);
  Alcotest.(check bool) "client.request spans present" true (count "client.request" > 0);
  match r.Inject.latency with
  | None -> Alcotest.fail "latency missing"
  | Some l ->
      (* chaos stalls the rekeyer and crashes servers: detection chains
         must open (closed or censored) *)
      Alcotest.(check bool) "detection chains observed" true
        (Latency.total l + Latency.censored l Latency.Detection > 0);
      Alcotest.(check bool) "latency table renders" true
        (Inject.latency_table r <> None)

let () =
  Alcotest.run "fortress_faults"
    [
      ( "plan",
        [
          Alcotest.test_case "builtins validate" `Quick test_builtins_validate;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "validation rejects" `Quick test_validation_rejects;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic verdicts" `Quick test_injector_deterministic;
          Alcotest.test_case "certain drop" `Quick test_injector_certain_drop;
          Alcotest.test_case "one label per link" `Quick test_injector_shares_link_labels;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "none plan is inert" `Quick test_wiring_none_is_inert;
          Alcotest.test_case "unknown target rejected" `Quick test_wiring_unknown_target_rejected;
          Alcotest.test_case "crash/restart timeline" `Quick test_wiring_crash_restart_timeline;
          Alcotest.test_case "rekey skips down server" `Quick test_rekey_skips_down_server;
          Alcotest.test_case "stall skips boundaries" `Quick test_stall_skips_boundaries;
          Alcotest.test_case "S0 proxy folds onto tail replica" `Quick
            test_smr_proxy_folds_onto_tail;
          Alcotest.test_case "S0 server maps to its replica" `Quick
            test_smr_server_maps_to_replica;
          Alcotest.test_case "S0 nameserver crash skipped" `Quick test_smr_nameserver_skipped;
          Alcotest.test_case "S0 absent target rejected" `Quick
            test_smr_absent_target_rejected;
          Alcotest.test_case "stall reaches the deployment's daemon" `Quick
            test_stall_reaches_fortress_daemon;
          Alcotest.test_case "S0 stall reaches the deployment's daemon" `Quick
            test_stall_reaches_smr_daemon;
          Alcotest.test_case "stall without a daemon wedges nothing" `Quick
            test_stall_without_daemon;
        ] );
      ( "inject",
        [
          Alcotest.test_case "trace digest deterministic" `Slow test_digest_deterministic;
          Alcotest.test_case "escalation ordering" `Slow test_escalation_ordering;
        ] );
      ( "causal",
        [
          Alcotest.test_case "off-path digest and EL unchanged" `Slow
            test_causal_off_digest_unchanged;
          Alcotest.test_case "jobs invariant" `Slow test_causal_jobs_invariant;
          Alcotest.test_case "stream carries spans and chains" `Slow
            test_causal_stream_carries_spans_and_chains;
        ] );
    ]
