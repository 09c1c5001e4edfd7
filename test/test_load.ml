module Workload = Fortress_load.Workload
module Arrival = Fortress_load.Arrival
module Inject = Fortress_exp.Inject
module Load_compare = Fortress_exp.Load_compare
module Plan = Fortress_faults.Plan
module Engine = Fortress_sim.Engine
module Prng = Fortress_util.Prng

(* ---- spec grammar ---- *)

let test_spec_parsing () =
  let ok s = Result.get_ok (Workload.spec_of_string s) in
  (match (ok "poisson:rate=0.5").Workload.loop with
  | Workload.Open (Arrival.Poisson { rate }) -> Alcotest.(check (float 1e-9)) "rate" 0.5 rate
  | _ -> Alcotest.fail "expected poisson");
  (match ok "closed:clients=64,think=25,batch=8,timeout=300" with
  | { Workload.loop = Workload.Closed { clients; think }; batch; timeout } ->
      Alcotest.(check int) "clients" 64 clients;
      Alcotest.(check (float 1e-9)) "think" 25.0 think;
      Alcotest.(check int) "batch" 8 batch;
      Alcotest.(check (float 1e-9)) "timeout" 300.0 timeout
  | _ -> Alcotest.fail "expected closed");
  let err s = Result.is_error (Workload.spec_of_string s) in
  Alcotest.(check bool) "unknown kind" true (err "zipf:rate=1");
  Alcotest.(check bool) "unknown key" true (err "poisson:rate=1,burst=2");
  Alcotest.(check bool) "missing key" true (err "poisson:batch=2");
  Alcotest.(check bool) "bursty needs burst > rate" true (err "bursty:rate=2,burst=1");
  Alcotest.(check bool) "bad number" true (err "poisson:rate=fast");
  Alcotest.(check bool) "zero batch" true (err "poisson:rate=1,batch=0")

(* NaN passes every range comparison and infinity every lower bound:
   each such spec used to abort on the engine's clock assertion or never
   finish *)
let test_spec_rejects_non_finite () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true (Result.is_error (Workload.spec_of_string s)))
    [
      "poisson:rate=nan"; "poisson:rate=inf"; "uniform:period=nan"; "uniform:period=inf";
      "closed:clients=2,think=nan"; "closed:clients=2,think=inf";
      "closed:clients=2,think=50,timeout=nan"; "closed:clients=2,timeout=inf";
      "bursty:rate=0.2,burst=2,on=nan,off=100"; "bursty:rate=0.2,burst=2,on=25,off=inf";
      "bursty:rate=0.2,burst=nan"; "bursty:rate=0.2,burst=inf"; "bursty:rate=nan,burst=2";
    ];
  Alcotest.(check bool) "Arrival.validate" true
    (Result.is_error (Arrival.validate (Arrival.Poisson { rate = Float.nan })))

let test_spec_roundtrip () =
  List.iter
    (fun s ->
      let spec = Result.get_ok (Workload.spec_of_string s) in
      let spec' = Result.get_ok (Workload.spec_of_string (Workload.spec_to_string spec)) in
      Alcotest.(check bool) (s ^ " roundtrips") true (spec = spec'))
    [
      "uniform:period=10"; "poisson:rate=0.25"; "bursty:rate=0.2,burst=2";
      "bursty:rate=0.1,burst=1,on=30,off=80,batch=4"; "closed:clients=32";
      "closed:clients=8,think=10,timeout=50,batch=2";
    ]

(* ---- arrival processes ---- *)

let test_arrival_means () =
  let mean arrival n =
    let prng = Prng.create ~seed:7 in
    let state = Arrival.init arrival prng in
    let total = ref 0.0 in
    for _ = 1 to n do
      total := !total +. Arrival.next_gap arrival state prng
    done;
    !total /. float_of_int n
  in
  Alcotest.(check (float 1e-9)) "uniform gap is the period" 4.0
    (mean (Arrival.Uniform { period = 4.0 }) 100);
  let poisson = mean (Arrival.Poisson { rate = 0.5 }) 20_000 in
  Alcotest.(check bool) "poisson mean gap near 1/rate" true
    (Float.abs (poisson -. 2.0) < 0.1);
  (* MMPP-2 long-run rate lies between the base and burst rates, weighted
     by phase occupancy *)
  let bursty =
    mean (Arrival.Bursty { rate = 0.2; burst = 2.0; mean_on = 25.0; mean_off = 100.0 }) 20_000
  in
  Alcotest.(check bool) "bursty mean gap between regimes" true
    (bursty > 1.0 /. 2.0 && bursty < 1.0 /. 0.2)

(* ---- attach on a live stack ---- *)

let fortress_stack ~seed =
  Fortress_core.Deployment.create { Fortress_core.Deployment.default_config with seed }

let run_spec ?(seed = 5) ?(horizon = 600.0) spec =
  let stack = fortress_stack ~seed in
  let engine = Fortress_core.Deployment.engine stack in
  let h =
    Workload.attach
      (module Fortress_exp.Stack_driver.Fortress)
      stack ~seed
      (Result.get_ok (Workload.spec_of_string spec))
  in
  Engine.run ~until:horizon engine;
  Workload.stats h

let test_open_loop_served () =
  let s = run_spec "poisson:rate=0.5" in
  Alcotest.(check bool) "issued about rate*horizon" true
    (s.Workload.issued > 200 && s.Workload.issued < 400);
  let avail = Option.get (Workload.availability s) in
  Alcotest.(check bool) "nearly all answered on a healthy stack" true (avail > 0.97)

let test_closed_loop_littles_law () =
  (* throughput = N / (Z + R): 8 sessions, think 40, R about 2.3 on the
     fault-free stack, so about 8/42.3 per unit time over the horizon *)
  let s = run_spec "closed:clients=8,think=40" ~horizon:2000.0 in
  let throughput = float_of_int s.Workload.answered /. 2000.0 in
  let predicted = 8.0 /. (40.0 +. 2.3) in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.3f within 15%% of Little's law %.3f" throughput predicted)
    true
    (Float.abs (throughput -. predicted) /. predicted < 0.15)

let test_batching_preserves_physical_stream () =
  (* one physical request carries [batch] logical requests: the protocol
     traffic — and therefore the event digest — must be identical to the
     batch-1 run, while the logical counters scale by the batch factor *)
  let run batch =
    let stack = fortress_stack ~seed:11 in
    let engine = Fortress_core.Deployment.engine stack in
    let digest, finalize = Fortress_obs.Sink.digesting () in
    ignore (Fortress_obs.Sink.attach (Engine.sink engine) digest);
    let h =
      Workload.attach
        (module Fortress_exp.Stack_driver.Fortress)
        stack ~seed:11
        (Result.get_ok (Workload.spec_of_string ("poisson:rate=0.3,batch=" ^ string_of_int batch)))
    in
    Engine.run ~until:400.0 engine;
    (finalize (), Workload.stats h)
  in
  let d1, s1 = run 1 and d4, s4 = run 4 in
  Alcotest.(check string) "digest independent of batch" d1 d4;
  Alcotest.(check int) "same physical submissions" s1.Workload.submitted s4.Workload.submitted;
  Alcotest.(check int) "logical issued scales" (s1.Workload.issued * 4) s4.Workload.issued;
  Alcotest.(check int) "logical answered scales" (s1.Workload.answered * 4) s4.Workload.answered

(* ---- determinism through Inject ---- *)

let load_cfg =
  {
    Inject.default_config with
    Inject.trials = 3;
    load = Some (Result.get_ok (Workload.spec_of_string "closed:clients=8,think=50"));
  }

let test_load_jobs_invariant () =
  let run run_plan jobs = run_plan { load_cfg with Inject.jobs } Plan.lossy in
  List.iter
    (fun (name, run_plan) ->
      let r1 = run run_plan 1 and r4 = run run_plan 4 in
      Alcotest.(check string) (name ^ " digest") r1.Inject.digest r4.Inject.digest;
      let s1 = Option.get r1.Inject.load and s4 = Option.get r4.Inject.load in
      Alcotest.(check int) (name ^ " issued") s1.Workload.issued s4.Workload.issued;
      Alcotest.(check int) (name ^ " answered") s1.Workload.answered s4.Workload.answered;
      Alcotest.(check int) (name ^ " timed out") s1.Workload.timed_out s4.Workload.timed_out;
      Alcotest.(check (option (float 1e-9)))
        (name ^ " p99") (Workload.quantile s1 0.99) (Workload.quantile s4 0.99);
      Alcotest.(check (option (float 1e-9)))
        (name ^ " availability") r1.Inject.availability r4.Inject.availability)
    [
      ("fortress", fun cfg plan -> Inject.run_plan cfg plan);
      ("smr", fun cfg plan -> Inject.run_smr_plan cfg plan);
    ]

let test_load_does_not_move_attack_digest () =
  (* the workload draws from its own PRNG stream: attaching it must not
     change the attacker's or the defense's randomness, so expected
     lifetime is identical with and without load *)
  let bare = Inject.run_plan { load_cfg with Inject.load = None } Plan.lossy in
  let loaded = Inject.run_plan load_cfg Plan.lossy in
  Alcotest.(check (float 1e-9)) "EL unchanged by load" bare.Inject.el.Fortress_mc.Trial.mean
    loaded.Inject.el.Fortress_mc.Trial.mean

let test_smr_availability_is_measured () =
  let bare = Inject.run_smr_plan { load_cfg with Inject.load = None } Plan.none in
  Alcotest.(check (option (float 1e-9))) "no client, no availability" None
    bare.Inject.availability;
  let loaded = Inject.run_smr_plan load_cfg Plan.none in
  match loaded.Inject.availability with
  | None -> Alcotest.fail "availability should be measured under load"
  | Some a -> Alcotest.(check bool) "within (0, 1]" true (a > 0.0 && a <= 1.0)

(* ---- the PODC comparison ---- *)

let test_podc_matched_plans () =
  let spec = Result.get_ok (Workload.spec_of_string "closed:clients=8,think=50") in
  let config = { Inject.default_config with Inject.trials = 3 } in
  let p = Load_compare.podc ~config ~plans:[ Plan.crashy ] spec in
  let open Load_compare in
  (* plan-major, fortress then smr within each plan *)
  Alcotest.(check (list string)) "row order"
    [ "none/fortress"; "none/smr"; "crashy/fortress"; "crashy/smr" ]
    (List.map (fun r -> r.sp_plan ^ "/" ^ r.sp_stack) p.podc_rows);
  let avail stack plan =
    let r =
      List.find (fun r -> r.sp_stack = stack && r.sp_plan = plan) p.podc_rows
    in
    Option.get r.sp_availability
  in
  (* the paper's claim at the service level: the fortified primary-backup
     construction keeps serving under a fault plan that collapses SMR
     (client-side retries + the proxy tier absorb what the replica group
     cannot) *)
  Alcotest.(check bool) "fortress out-serves smr under crashy" true
    (avail "fortress" "crashy" > avail "smr" "crashy");
  List.iter
    (fun r -> Alcotest.(check bool) "every row issued load" true (r.sp_issued > 0))
    p.podc_rows;
  (* reproducibility: the same config replays bit-identical digests *)
  let p' = Load_compare.podc ~config ~plans:[ Plan.crashy ] spec in
  Alcotest.(check (list string)) "digests reproduce"
    (List.map (fun r -> r.sp_digest) p.podc_rows)
    (List.map (fun r -> r.sp_digest) p'.podc_rows)

let () =
  Alcotest.run "fortress_load"
    [
      ( "spec",
        [
          Alcotest.test_case "parse grammar" `Quick test_spec_parsing;
          Alcotest.test_case "to_string roundtrips" `Quick test_spec_roundtrip;
          Alcotest.test_case "non-finite parameters rejected" `Quick
            test_spec_rejects_non_finite;
        ] );
      ("arrival", [ Alcotest.test_case "process means" `Quick test_arrival_means ]);
      ( "plane",
        [
          Alcotest.test_case "open loop serves" `Quick test_open_loop_served;
          Alcotest.test_case "closed loop obeys Little's law" `Quick
            test_closed_loop_littles_law;
          Alcotest.test_case "batching preserves the physical stream" `Quick
            test_batching_preserves_physical_stream;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs invariant on both stacks" `Slow test_load_jobs_invariant;
          Alcotest.test_case "load does not move the attack" `Slow
            test_load_does_not_move_attack_digest;
          Alcotest.test_case "smr availability measured not fabricated" `Slow
            test_smr_availability_is_measured;
        ] );
      ( "podc",
        [ Alcotest.test_case "matched plans, fortress out-serves smr" `Slow test_podc_matched_plans ] );
    ]
