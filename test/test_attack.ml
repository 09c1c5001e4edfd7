open Fortress_attack
module Engine = Fortress_sim.Engine
module Keyspace = Fortress_defense.Keyspace
module Instance = Fortress_defense.Instance
module Daemon = Fortress_defense.Daemon
module Deployment = Fortress_core.Deployment
module Obfuscation = Fortress_core.Obfuscation
module Prng = Fortress_util.Prng

(* ---- Knowledge ---- *)

let test_knowledge_elimination () =
  let ks = Keyspace.of_size 100 in
  let k = Knowledge.create ks in
  Alcotest.(check int) "nothing eliminated" 0 (Knowledge.eliminated k);
  Alcotest.(check int) "all remaining" 100 (Knowledge.remaining k);
  Knowledge.observe_crash k ~guess:5;
  Knowledge.observe_crash k ~guess:6;
  Alcotest.(check int) "two eliminated" 2 (Knowledge.eliminated k);
  Alcotest.(check int) "98 left" 98 (Knowledge.remaining k)

let test_knowledge_never_repeats () =
  (* exhaustive sweeps, including sizes on either side of a 64-key block *)
  List.iter
    (fun chi ->
      let ks = Keyspace.of_size chi in
      let k = Knowledge.create ks in
      let prng = Prng.create ~seed:1 in
      let seen = Hashtbl.create 64 in
      for _ = 1 to chi do
        let g = Option.get (Knowledge.next_guess k prng) in
        Alcotest.(check bool) "in the key space" true (Keyspace.contains ks g);
        Alcotest.(check bool) "fresh guess" false (Hashtbl.mem seen g);
        Hashtbl.replace seen g ();
        Knowledge.observe_crash k ~guess:g
      done;
      Alcotest.(check int) (Printf.sprintf "chi %d exhausted" chi) 0 (Knowledge.remaining k);
      Alcotest.(check bool) "then None" true (Knowledge.next_guess k prng = None))
    [ 2; 50; 63; 64; 65; 1000 ]

let test_knowledge_rejects_foreign_keys () =
  let ks = Keyspace.of_size 100 in
  let k = Knowledge.create ks in
  Knowledge.observe_crash k ~guess:99;
  List.iter
    (fun guess ->
      Alcotest.check_raises
        (Printf.sprintf "crash on %d" guess)
        (Invalid_argument
           (Printf.sprintf "Knowledge.observe_crash: key %d is outside [0, 100)" guess))
        (fun () -> Knowledge.observe_crash k ~guess);
      Alcotest.check_raises
        (Printf.sprintf "intrusion on %d" guess)
        (Invalid_argument
           (Printf.sprintf "Knowledge.observe_intrusion: key %d is outside [0, 100)" guess))
        (fun () -> Knowledge.observe_intrusion k ~guess))
    [ -1; 100; 104; max_int ];
  Alcotest.(check int) "eliminated unchanged" 1 (Knowledge.eliminated k);
  Alcotest.(check int) "remaining unchanged" 99 (Knowledge.remaining k);
  Alcotest.(check bool) "no key confirmed" true (Knowledge.known_key k = None)

let test_knowledge_exhaustion_graceful () =
  let ks = Keyspace.of_size 3 in
  let k = Knowledge.create ks in
  let prng = Prng.create ~seed:2 in
  for _ = 1 to 3 do
    Knowledge.observe_crash k ~guess:(Option.get (Knowledge.next_guess k prng))
  done;
  Alcotest.(check bool) "exhausted yields None" true (Knowledge.next_guess k prng = None);
  (* a rekey refills the space: the attacker resumes *)
  Knowledge.on_target_rekeyed k;
  Alcotest.(check bool) "guessing resumes after rekey" true
    (Knowledge.next_guess k prng <> None)

let test_knowledge_confirmed_key_sticks () =
  let ks = Keyspace.of_size 50 in
  let k = Knowledge.create ks in
  let prng = Prng.create ~seed:3 in
  Knowledge.observe_intrusion k ~guess:42;
  Alcotest.(check bool) "known" true (Knowledge.known_key k = Some 42);
  Alcotest.(check bool) "reuses the key" true (Knowledge.next_guess k prng = Some 42);
  Knowledge.on_target_recovered k;
  Alcotest.(check bool) "recovery does not hide the key" true (Knowledge.known_key k = Some 42);
  Knowledge.on_target_rekeyed k;
  Alcotest.(check bool) "rekey voids it" true (Knowledge.known_key k = None);
  Alcotest.(check int) "eliminations void too" 0 (Knowledge.eliminated k)

let test_knowledge_dense_tail () =
  (* when few keys remain, the walk-based sampler must still be uniform-ish
     and fresh *)
  let ks = Keyspace.of_size 10 in
  let k = Knowledge.create ks in
  let prng = Prng.create ~seed:5 in
  for g = 0 to 7 do
    Knowledge.observe_crash k ~guess:g
  done;
  let g1 = Option.get (Knowledge.next_guess k prng) in
  Alcotest.(check bool) "one of the remaining two" true (g1 = 8 || g1 = 9)

(* The hash-set implementation the bitset replaced, kept as the oracle for
   the draw sequence: rejection sampling while more than half the keys are
   untried, then one draw j and a walk to the j-th untried key. *)
module Reference_knowledge = struct
  type t = { ks : Keyspace.t; mutable tried : (int, unit) Hashtbl.t; mutable key : int option }

  let create ks = { ks; tried = Hashtbl.create 64; key = None }
  let eliminated t = Hashtbl.length t.tried
  let remaining t = Keyspace.size t.ks - eliminated t
  let known_key t = t.key

  let next_guess t prng =
    match t.key with
    | Some k -> Some k
    | None ->
        let n = Keyspace.size t.ks in
        let left = remaining t in
        if left <= 0 then None
        else if left > n / 2 then begin
          let rec draw () =
            let g = Prng.int prng ~bound:n in
            if Hashtbl.mem t.tried g then draw () else g
          in
          Some (draw ())
        end
        else begin
          let j = ref (Prng.int prng ~bound:left) in
          let result = ref (-1) in
          (try
             for g = 0 to n - 1 do
               if not (Hashtbl.mem t.tried g) then begin
                 if !j = 0 then begin
                   result := g;
                   raise Exit
                 end;
                 decr j
               end
             done
           with Exit -> ());
          Some !result
        end

  let observe_crash t ~guess = Hashtbl.replace t.tried guess ()
  let observe_intrusion t ~guess = t.key <- Some guess

  let on_target_rekeyed t =
    t.tried <- Hashtbl.create 64;
    t.key <- None
end

type knowledge_op =
  | Guess_crash  (** draw a guess and rule it out: the common case *)
  | Guess  (** draw without observing, as a probe still in flight *)
  | Crash of int  (** rule out an arbitrary key, possibly a repeat *)
  | Intrusion of int
  | Rekeyed
  | Recovered

let pp_knowledge_op = function
  | Guess_crash -> "guess+crash"
  | Guess -> "guess"
  | Crash g -> Printf.sprintf "crash %d" g
  | Intrusion g -> Printf.sprintf "intrusion %d" g
  | Rekeyed -> "rekeyed"
  | Recovered -> "recovered"

let knowledge_case_gen =
  let open QCheck.Gen in
  int_range 2 300 >>= fun chi ->
  let op =
    frequency
      [
        (80, return Guess_crash);
        (4, return Guess);
        (8, map (fun g -> Crash g) (int_bound (chi - 1)));
        (1, map (fun g -> Intrusion g) (int_bound (chi - 1)));
        (1, return Rekeyed);
        (3, return Recovered);
      ]
  in
  triple (return chi) (int_bound 1_000_000) (int_range 0 (2 * chi) >>= fun n -> list_repeat n op)

(* Runs [ops] against both implementations; [Some msg] at the first
   disagreement. *)
let knowledge_diverges (chi, seed, ops) =
  let ks = Keyspace.of_size chi in
  let k = Knowledge.create ks and r = Reference_knowledge.create ks in
  let pk = Prng.create ~seed and pr = Prng.create ~seed in
  let guess () =
    let a = Knowledge.next_guess k pk and b = Reference_knowledge.next_guess r pr in
    if a <> b then
      failwith
        (Printf.sprintf "guess %s vs reference %s"
           (Option.fold ~none:"None" ~some:string_of_int a)
           (Option.fold ~none:"None" ~some:string_of_int b));
    a
  in
  let crash g =
    Knowledge.observe_crash k ~guess:g;
    Reference_knowledge.observe_crash r ~guess:g
  in
  try
    List.iteri
      (fun i op ->
        (match op with
        | Guess_crash -> Option.iter crash (guess ())
        | Guess -> ignore (guess ())
        | Crash g -> crash g
        | Intrusion g ->
            Knowledge.observe_intrusion k ~guess:g;
            Reference_knowledge.observe_intrusion r ~guess:g
        | Rekeyed ->
            Knowledge.on_target_rekeyed k;
            Reference_knowledge.on_target_rekeyed r
        | Recovered -> Knowledge.on_target_recovered k);
        if
          Knowledge.eliminated k <> Reference_knowledge.eliminated r
          || Knowledge.remaining k <> Reference_knowledge.remaining r
          || Knowledge.known_key k <> Reference_knowledge.known_key r
        then failwith (Printf.sprintf "state differs after op %d (%s)" i (pp_knowledge_op op)))
      ops;
    None
  with Failure msg -> Some msg

let knowledge_qcheck_tests =
  [
    QCheck.Test.make ~name:"knowledge matches the hash-set reference" ~count:300
      (QCheck.make
         ~print:(fun (chi, seed, ops) ->
           Printf.sprintf "chi=%d seed=%d ops=[%s]" chi seed
             (String.concat "; " (List.map pp_knowledge_op ops)))
         ~shrink:(fun (chi, seed, ops) ->
           QCheck.Iter.map (fun ops -> (chi, seed, ops)) (QCheck.Shrink.list ops))
         knowledge_case_gen)
      (fun case ->
        match knowledge_diverges case with
        | None -> true
        | Some msg -> QCheck.Test.fail_report msg);
  ]

(* ---- Derandomizer against the forking daemon ---- *)

let run_attack ~keys ~seed =
  let engine = Engine.create ~prng:(Prng.create ~seed) () in
  let ks = Keyspace.of_size keys in
  let instance = Instance.create ks (Engine.prng engine) in
  let daemon = Daemon.create engine ~instance in
  let result = ref None in
  Derandomizer.run ~engine ~daemon ~prng:(Prng.create ~seed:(seed + 1))
    ~on_done:(fun r -> result := Some r) ();
  Engine.run engine;
  (daemon, Option.get !result)

let test_derandomizer_finds_key () =
  let daemon, r = run_attack ~keys:64 ~seed:1 in
  (match r.Derandomizer.found_key with
  | Some key -> Alcotest.(check int) "found the actual key" (Instance.key (Daemon.instance daemon)) key
  | None -> Alcotest.fail "budget was the whole space");
  Alcotest.(check bool) "daemon compromised" true (Daemon.compromised daemon);
  Alcotest.(check int) "one crash per wrong probe" (r.Derandomizer.probes - 1)
    r.Derandomizer.crashes_caused

let test_derandomizer_probe_count_bounded () =
  let _, r = run_attack ~keys:64 ~seed:2 in
  Alcotest.(check bool) "at most the whole space" true (r.Derandomizer.probes <= 64);
  Alcotest.(check bool) "at least one probe" true (r.Derandomizer.probes >= 1)

let test_derandomizer_mean_near_half_space () =
  let total = ref 0 in
  let runs = 40 in
  for seed = 1 to runs do
    let _, r = run_attack ~keys:128 ~seed in
    total := !total + r.Derandomizer.probes
  done;
  let mean = float_of_int !total /. float_of_int runs in
  (* expected (chi+1)/2 = 64.5; allow generous sampling noise *)
  Alcotest.(check bool)
    (Printf.sprintf "mean probes %.1f near 64.5" mean)
    true
    (mean > 45.0 && mean < 85.0)

let test_derandomizer_budget_exhaustion () =
  let engine = Engine.create ~prng:(Prng.create ~seed:50) () in
  let ks = Keyspace.of_size 4096 in
  let instance = Instance.create ks (Engine.prng engine) in
  let daemon = Daemon.create engine ~instance in
  let result = ref None in
  Derandomizer.run ~engine ~daemon ~prng:(Prng.create ~seed:51) ~max_probes:3
    ~on_done:(fun r -> result := Some r) ();
  Engine.run engine;
  match !result with
  | Some r ->
      Alcotest.(check int) "stopped at budget" 3 r.Derandomizer.probes;
      Alcotest.(check bool) "likely not found" true (r.Derandomizer.found_key = None)
  | None -> Alcotest.fail "no result"

(* ---- Campaign against a live deployment ---- *)

let small_deployment ?(threshold = 10) ?(keys = 64) ?(seed = 3) () =
  Deployment.create
    {
      Deployment.default_config with
      keyspace = Keyspace.of_size keys;
      seed;
      proxy = { Fortress_core.Proxy.default_config with detection_threshold = threshold };
    }

let test_campaign_compromises_small_keyspace () =
  let d = small_deployment () in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
  let campaign =
    Campaign.launch d (Campaign.make_config ~omega:16 ~kappa:0.5 ~period:100.0 ~seed:0 ())
  in
  match Campaign.run_until_compromise campaign ~max_steps:500 with
  | Some step ->
      Alcotest.(check bool) "positive step" true (step >= 1);
      Alcotest.(check bool) "probes were sent" true
        ((Campaign.stats campaign).Campaign_intf.Stats.direct_probes_sent > 0)
  | None -> Alcotest.fail "with chi=64 and omega=16 compromise is near-certain"

let test_campaign_po_outlives_so () =
  (* same attacker, same chi: the SO system falls first on average *)
  let lifetime mode seed =
    let d = small_deployment ~keys:256 ~seed () in
    ignore (Deployment.obfuscate d ~mode ~period:100.0);
    let campaign =
      Campaign.launch d
        (Campaign.make_config ~omega:8 ~kappa:0.5 ~period:100.0 ~target_mode:mode
           ~seed:(seed + 1000) ())
    in
    match Campaign.run_until_compromise campaign ~max_steps:2000 with
    | Some step -> step
    | None -> 2000
  in
  let total_po = ref 0 and total_so = ref 0 in
  for seed = 1 to 8 do
    total_po := !total_po + lifetime Obfuscation.PO seed;
    total_so := !total_so + lifetime Obfuscation.SO seed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "PO total %d vs SO total %d" !total_po !total_so)
    true (!total_po > !total_so)

let test_campaign_detection_reduces_effective_kappa () =
  let effective threshold =
    let d = small_deployment ~threshold ~keys:(1 lsl 14) () in
    ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
    let campaign =
      Campaign.launch d
        (Campaign.make_config ~omega:32 ~kappa:1.0 ~period:100.0 ~seed:17 ())
    in
    ignore (Campaign.run_until_compromise campaign ~max_steps:10);
    Campaign.effective_kappa campaign
  in
  Alcotest.(check bool) "tight threshold throttles harder" true
    (effective 2 < effective 1000)

let test_campaign_validates_config () =
  let d = small_deployment () in
  Alcotest.check_raises "omega" (Invalid_argument "Campaign.launch: omega must be positive")
    (fun () -> ignore (Campaign.launch d (Campaign.make_config ~omega:0 ~seed:0 ())));
  Alcotest.check_raises "kappa" (Invalid_argument "Campaign.launch: kappa in [0,1]") (fun () ->
      ignore (Campaign.launch d (Campaign.make_config ~kappa:1.5 ~seed:0 ())))

let test_campaign_deterministic_from_seed () =
  let outcome seed_pair =
    let deployment_seed, campaign_seed = seed_pair in
    let d = small_deployment ~keys:128 ~seed:deployment_seed () in
    ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
    let campaign =
      Campaign.launch d
        (Campaign.make_config ~omega:8 ~kappa:0.5 ~period:100.0 ~seed:campaign_seed ())
    in
    let step = Campaign.run_until_compromise campaign ~max_steps:300 in
    let stats = Campaign.stats campaign in
    ( step,
      stats.Campaign_intf.Stats.direct_probes_sent,
      stats.Campaign_intf.Stats.indirect_probes_sent )
  in
  Alcotest.(check bool) "same seeds, same execution" true
    (outcome (5, 9) = outcome (5, 9));
  Alcotest.(check bool) "different seeds diverge" true (outcome (5, 9) <> outcome (6, 9))

let test_campaign_no_proxies_attacks_servers () =
  let d =
    Deployment.create
      { Deployment.default_config with np = 0; keyspace = Keyspace.of_size 64; seed = 4 }
  in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
  let campaign =
    Campaign.launch d (Campaign.make_config ~omega:16 ~kappa:0.0 ~period:100.0 ~seed:0 ())
  in
  match Campaign.run_until_compromise campaign ~max_steps:200 with
  | Some _ ->
      Alcotest.(check int) "no indirect probes without proxies" 0
        (Campaign.stats campaign).Campaign_intf.Stats.indirect_probes_sent
  | None -> Alcotest.fail "bare S1 with chi=64 must fall quickly"

(* ---- Pacing ---- *)

let test_pacing_uniform_offsets () =
  let offsets = Pacing.offsets Pacing.Uniform ~budget:4 ~period:100.0 in
  Alcotest.(check int) "all slots" 4 (List.length offsets);
  List.iter
    (fun o -> Alcotest.(check bool) "strictly inside the step" true (o > 0.0 && o < 100.0))
    offsets;
  let sorted = List.sort compare offsets in
  Alcotest.(check bool) "increasing" true (sorted = offsets)

let test_pacing_burst_front_loaded () =
  let offsets = Pacing.offsets Pacing.Burst ~budget:10 ~period:100.0 in
  Alcotest.(check int) "all slots" 10 (List.length offsets);
  List.iter (fun o -> Alcotest.(check bool) "within first 1%" true (o <= 1.0)) offsets

let test_pacing_below_threshold_caps_budget () =
  (* threshold 10 per window 100, over a period 100: at most 10 probes *)
  let pacing = Pacing.Below_threshold { window = 100.0; threshold = 10 } in
  Alcotest.(check int) "capped" 10 (Pacing.effective_budget pacing ~budget:64 ~period:100.0);
  Alcotest.(check int) "uncapped when budget is small" 5
    (Pacing.effective_budget pacing ~budget:5 ~period:100.0);
  (* a longer period sustains proportionally more *)
  Alcotest.(check int) "scales with period" 20
    (Pacing.effective_budget pacing ~budget:64 ~period:200.0)

let test_pacing_effective_kappa () =
  let pacing = Pacing.Below_threshold { window = 100.0; threshold = 16 } in
  Alcotest.(check (float 1e-9)) "16 of 64" 0.25
    (Pacing.effective_kappa pacing ~omega:64 ~period:100.0);
  Alcotest.(check (float 1e-9)) "uniform is 1" 1.0
    (Pacing.effective_kappa Pacing.Uniform ~omega:64 ~period:100.0)

let test_pacing_string_roundtrip () =
  List.iter
    (fun p ->
      match Pacing.of_string (Pacing.to_string p) with
      | Some p' -> Alcotest.(check bool) "round-trips" true (p = p')
      | None -> Alcotest.fail "parse failed")
    [ Pacing.Uniform; Pacing.Burst; Pacing.Below_threshold { window = 50.0; threshold = 7 } ];
  Alcotest.(check bool) "junk rejected" true (Pacing.of_string "sideways" = None);
  Alcotest.(check bool) "bad numbers rejected" true (Pacing.of_string "below:x:3" = None)

let test_pacing_zero_threshold () =
  let pacing = Pacing.Below_threshold { window = 100.0; threshold = 0 } in
  Alcotest.(check int) "silent attacker" 0 (Pacing.effective_budget pacing ~budget:64 ~period:100.0);
  Alcotest.(check (list (float 0.0))) "no offsets" []
    (Pacing.offsets pacing ~budget:64 ~period:100.0)

let test_campaign_burst_pacing_still_works () =
  let d = small_deployment ~keys:64 ~seed:9 () in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
  let campaign =
    Campaign.launch d
      (Campaign.make_config ~omega:16 ~kappa:0.5 ~period:100.0 ~pacing:Pacing.Burst ~seed:0
         ())
  in
  match Campaign.run_until_compromise campaign ~max_steps:500 with
  | Some _ -> ()
  | None -> Alcotest.fail "burst campaign should still compromise chi=64"

let test_campaign_below_threshold_pacing_never_blocked () =
  (* the sliding window can straddle a step boundary, so the safe pace is
     half the threshold per step *)
  let d = small_deployment ~threshold:25 ~keys:(1 lsl 14) ~seed:21 () in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
  let campaign =
    Campaign.launch d
      (Campaign.make_config ~omega:32 ~kappa:1.0 ~period:100.0
         (* stay at 9 <= threshold probes per window per source *)
         ~pacing:(Pacing.Below_threshold { window = 100.0; threshold = 9 })
         ~seed:31 ())
  in
  ignore (Campaign.run_until_compromise campaign ~max_steps:10);
  Alcotest.(check int) "no source ever burned" 0
    (Campaign.stats campaign).Campaign_intf.Stats.sources_burned

(* ---- S0 campaign ---- *)

let s0_protocol_lifetime ?(stagger = true) ~chi ~omega ~seed ~max_steps () =
  let module SD = Fortress_core.Smr_deployment in
  let d =
    SD.create { SD.default_config with keyspace = Keyspace.of_size chi; seed }
  in
  ignore (SD.obfuscate ~stagger d ~mode:Obfuscation.PO ~period:100.0);
  let c =
    Smr_campaign.launch d (Smr_campaign.make_config ~omega ~seed:(seed + 77) ())
  in
  Option.value ~default:max_steps (Smr_campaign.run_until_compromise c ~max_steps)

let s2_protocol_lifetime ~chi ~omega ~kappa ~seed ~max_steps =
  let d =
    Deployment.create
      {
        Deployment.default_config with
        keyspace = Keyspace.of_size chi;
        seed;
        proxy =
          { Fortress_core.Proxy.default_config with detection_threshold = max_int - 1 };
      }
  in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
  let c =
    Campaign.launch d
      (Campaign.make_config ~omega ~kappa ~period:100.0 ~seed:(seed + 77) ())
  in
  Option.value ~default:max_steps (Campaign.run_until_compromise c ~max_steps)

let test_smr_campaign_compromises () =
  let lifetime = s0_protocol_lifetime ~chi:64 ~omega:16 ~seed:1 ~max_steps:500 () in
  Alcotest.(check bool) "falls within the horizon" true (lifetime < 500)

let test_smr_campaign_needs_two_intrusions () =
  let module SD = Fortress_core.Smr_deployment in
  let d = SD.create { SD.default_config with keyspace = Keyspace.of_size 64; seed = 2 } in
  ignore (SD.obfuscate d ~mode:Obfuscation.PO ~period:100.0);
  let c = Smr_campaign.launch d (Smr_campaign.make_config ~omega:16 ~seed:5 ()) in
  (match Smr_campaign.run_until_compromise c ~max_steps:500 with
  | Some _ ->
      Alcotest.(check bool) "at least two intrusions landed" true
        ((Smr_campaign.stats c).Campaign_intf.Stats.intrusions >= 2)
  | None -> Alcotest.fail "chi=64 must fall");
  Alcotest.(check bool) "probes were spent" true
    (Campaign_intf.Stats.probes_sent (Smr_campaign.stats c) > 0)

let test_protocol_s0po_outlives_s2po () =
  (* the headline ordering at the packet level: diverse 4-replica SMR under
     PO outlives FORTRESS when the indirect channel is wide open *)
  let chi = 128 and omega = 8 and trials = 40 in
  let total f = List.init trials (fun i -> f (i + 1)) |> List.fold_left ( + ) 0 in
  let s0 = total (fun seed -> s0_protocol_lifetime ~chi ~omega ~seed ~max_steps:2000 ()) in
  let s2 =
    total (fun seed -> s2_protocol_lifetime ~chi ~omega ~kappa:1.0 ~seed ~max_steps:2000)
  in
  Alcotest.(check bool)
    (Printf.sprintf "S0PO total %d > S2PO total %d" s0 s2)
    true (s0 > s2)

let test_aligned_schedule_outlives_staggered () =
  (* V3's actionable finding: firing all recovery batches back-to-back at
     the boundary aligns the replicas' exposure windows, denying the
     attacker the sliding simultaneity window the staggered schedule
     leaks *)
  let chi = 128 and omega = 8 and trials = 40 in
  let total stagger =
    List.init trials (fun i ->
        s0_protocol_lifetime ~stagger ~chi ~omega ~seed:(i + 1) ~max_steps:3000 ())
    |> List.fold_left ( + ) 0
  in
  let staggered = total true and aligned = total false in
  Alcotest.(check bool)
    (Printf.sprintf "aligned total %d > staggered total %d" aligned staggered)
    true (aligned > staggered)

let test_smr_campaign_within_model_ballpark () =
  (* the staggered Roeder-Schneider schedule hands the attacker a sliding
     simultaneity window, so the measured lifetime sits below the
     aligned-step analytic value — but within a small constant factor *)
  let chi = 128 and omega = 8 and trials = 40 in
  let alpha = float_of_int omega /. float_of_int chi in
  let analytic = Fortress_model.Systems.s0_po ~alpha in
  let mean =
    float_of_int
      (List.init trials (fun i ->
           s0_protocol_lifetime ~chi ~omega ~seed:(i + 1) ~max_steps:2000 ())
      |> List.fold_left ( + ) 0)
    /. float_of_int trials
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.0f vs analytic %.0f within [0.3x, 1.3x]" mean analytic)
    true
    (mean > 0.3 *. analytic && mean < 1.3 *. analytic)

let () =
  Alcotest.run "fortress_attack"
    [
      ( "knowledge",
        [
          Alcotest.test_case "elimination accounting" `Quick test_knowledge_elimination;
          Alcotest.test_case "never repeats a guess" `Quick test_knowledge_never_repeats;
          Alcotest.test_case "exhaustion graceful" `Quick test_knowledge_exhaustion_graceful;
          Alcotest.test_case "confirmed key semantics" `Quick test_knowledge_confirmed_key_sticks;
          Alcotest.test_case "dense tail sampling" `Quick test_knowledge_dense_tail;
          Alcotest.test_case "rejects keys outside the space" `Quick
            test_knowledge_rejects_foreign_keys;
        ]
        @ List.map QCheck_alcotest.to_alcotest knowledge_qcheck_tests );
      ( "derandomizer",
        [
          Alcotest.test_case "finds the key" `Quick test_derandomizer_finds_key;
          Alcotest.test_case "probe count bounded" `Quick test_derandomizer_probe_count_bounded;
          Alcotest.test_case "mean near half the space" `Slow test_derandomizer_mean_near_half_space;
          Alcotest.test_case "budget exhaustion" `Quick test_derandomizer_budget_exhaustion;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "compromises small key space" `Quick
            test_campaign_compromises_small_keyspace;
          Alcotest.test_case "PO outlives SO" `Slow test_campaign_po_outlives_so;
          Alcotest.test_case "detection reduces kappa" `Quick
            test_campaign_detection_reduces_effective_kappa;
          Alcotest.test_case "config validation" `Quick test_campaign_validates_config;
          Alcotest.test_case "np=0 attacks servers" `Quick test_campaign_no_proxies_attacks_servers;
          Alcotest.test_case "deterministic from seed" `Quick test_campaign_deterministic_from_seed;
          Alcotest.test_case "burst pacing" `Quick test_campaign_burst_pacing_still_works;
          Alcotest.test_case "below-threshold pacing evades" `Quick
            test_campaign_below_threshold_pacing_never_blocked;
        ] );
      ( "smr-campaign",
        [
          Alcotest.test_case "compromises S0" `Quick test_smr_campaign_compromises;
          Alcotest.test_case "needs two intrusions" `Quick test_smr_campaign_needs_two_intrusions;
          Alcotest.test_case "S0PO outlives S2PO at packet level" `Slow
            test_protocol_s0po_outlives_s2po;
          Alcotest.test_case "within model ballpark" `Slow test_smr_campaign_within_model_ballpark;
          Alcotest.test_case "aligned schedule beats staggered" `Slow
            test_aligned_schedule_outlives_staggered;
        ] );
      ( "pacing",
        [
          Alcotest.test_case "uniform offsets" `Quick test_pacing_uniform_offsets;
          Alcotest.test_case "burst front-loaded" `Quick test_pacing_burst_front_loaded;
          Alcotest.test_case "below-threshold caps budget" `Quick
            test_pacing_below_threshold_caps_budget;
          Alcotest.test_case "effective kappa" `Quick test_pacing_effective_kappa;
          Alcotest.test_case "string round-trip" `Quick test_pacing_string_roundtrip;
          Alcotest.test_case "zero threshold" `Quick test_pacing_zero_threshold;
        ] );
    ]
