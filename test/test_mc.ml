open Fortress_mc
module Systems = Fortress_model.Systems
module Prng = Fortress_util.Prng

(* ---- Trial runner ---- *)

let test_trial_deterministic_sampler () =
  let r = Trial.run ~trials:100 ~seed:1 ~sampler:(fun _ -> Some 7) () in
  Alcotest.(check (float 1e-9)) "mean" 7.0 r.Trial.mean;
  Alcotest.(check int) "censored" 0 r.Trial.censored;
  Alcotest.(check int) "trials" 100 r.Trial.trials

let test_trial_censoring () =
  let count = ref 0 in
  let sampler _ =
    incr count;
    if !count mod 2 = 0 then None else Some 3
  in
  let r = Trial.run ~trials:10 ~seed:1 ~sampler () in
  Alcotest.(check int) "half censored" 5 r.Trial.censored;
  Alcotest.(check int) "observed" 5 (Array.length r.Trial.lifetimes)

let test_trial_reproducible () =
  let sampler prng = Some (1 + Prng.int prng ~bound:100) in
  let a = Trial.run ~trials:50 ~seed:9 ~sampler () in
  let b = Trial.run ~trials:50 ~seed:9 ~sampler () in
  Alcotest.(check (array (float 0.0))) "same lifetimes" a.Trial.lifetimes b.Trial.lifetimes;
  let c = Trial.run ~trials:50 ~seed:10 ~sampler () in
  Alcotest.(check bool) "different seed differs" false (a.Trial.lifetimes = c.Trial.lifetimes)

let test_trial_invalid () =
  Alcotest.check_raises "no trials" (Invalid_argument "Trial.run: trials must be positive")
    (fun () -> ignore (Trial.run ~trials:0 ~seed:1 ~sampler:(fun _ -> Some 1) ()))

(* ---- step-level vs analytic ---- *)

let within_tolerance ~tol analytic mc = Float.abs (mc -. analytic) /. analytic < tol

let check_step_agreement system ~alpha ~kappa ~tol =
  let cfg = { Step_level.default with alpha; kappa } in
  let r = Step_level.estimate ~trials:4000 ~seed:7 system cfg in
  let analytic = Systems.expected_lifetime system ~alpha ~kappa in
  Alcotest.(check bool)
    (Printf.sprintf "%s: MC %.1f vs analytic %.1f" (Systems.system_to_string system) r.Trial.mean
       analytic)
    true
    (within_tolerance ~tol analytic r.Trial.mean)

let test_step_s1po () = check_step_agreement Systems.S1_PO ~alpha:5e-3 ~kappa:0.5 ~tol:0.06
let test_step_s0po () = check_step_agreement Systems.S0_PO ~alpha:2e-2 ~kappa:0.5 ~tol:0.08
let test_step_s1so () = check_step_agreement Systems.S1_SO ~alpha:5e-3 ~kappa:0.5 ~tol:0.05
let test_step_s0so () = check_step_agreement Systems.S0_SO ~alpha:5e-3 ~kappa:0.5 ~tol:0.05
let test_step_s2po () = check_step_agreement Systems.S2_PO ~alpha:5e-3 ~kappa:0.5 ~tol:0.08

let test_step_s2po_kappa_one_worse_than_s1po () =
  let cfg = { Step_level.default with alpha = 5e-3; kappa = 1.0 } in
  let s2 = Step_level.estimate ~trials:3000 ~seed:3 Systems.S2_PO cfg in
  let s1 = Step_level.estimate ~trials:3000 ~seed:4 Systems.S1_PO cfg in
  Alcotest.(check bool) "launch pads make kappa=1 strictly worse" true
    (s2.Trial.mean < s1.Trial.mean)

let test_step_censoring_horizon () =
  let cfg = { Step_level.default with alpha = 1e-6; max_steps = 10 } in
  let r = Step_level.estimate ~trials:50 ~seed:5 Systems.S1_PO cfg in
  Alcotest.(check int) "all censored at tiny horizon" 50 r.Trial.censored

let test_step_invalid_config () =
  Alcotest.check_raises "alpha range" (Invalid_argument "Step_level: alpha in [0,1]") (fun () ->
      ignore
        (Step_level.sampler Systems.S1_PO { Step_level.default with alpha = 1.5 }
           (Prng.create ~seed:1)))

(* ---- probe-level ---- *)

let test_probe_alpha_of () =
  let cfg = { Probe_level.default with chi = 1000; omega = 10 } in
  Alcotest.(check (float 1e-12)) "omega/chi" 0.01 (Probe_level.alpha_of cfg)

let test_probe_s1_po_matches_analytic () =
  let cfg = { Probe_level.default with chi = 1024; omega = 8 } in
  let alpha = Probe_level.alpha_of cfg in
  let r = Probe_level.estimate ~trials:800 ~seed:11 Systems.S1_PO cfg in
  let analytic = Systems.s1_po ~alpha in
  Alcotest.(check bool)
    (Printf.sprintf "probe MC %.1f vs analytic %.1f" r.Trial.mean analytic)
    true
    (within_tolerance ~tol:0.1 analytic r.Trial.mean)

let test_probe_s1_so_matches_analytic () =
  let cfg = { Probe_level.default with chi = 1024; omega = 8 } in
  let alpha = Probe_level.alpha_of cfg in
  let r = Probe_level.estimate ~trials:800 ~seed:13 Systems.S1_SO cfg in
  let analytic = Systems.s1_so ~alpha in
  Alcotest.(check bool)
    (Printf.sprintf "probe MC %.1f vs analytic %.1f" r.Trial.mean analytic)
    true
    (within_tolerance ~tol:0.1 analytic r.Trial.mean)

let test_probe_s1_so_never_censors_past_chi () =
  (* without replacement the key must fall within chi/omega steps *)
  let cfg = { Probe_level.default with chi = 256; omega = 8; max_steps = 64 } in
  let r = Probe_level.estimate ~trials:200 ~seed:17 Systems.S1_SO cfg in
  Alcotest.(check int) "exhaustive search always terminates" 0 r.Trial.censored;
  Array.iter
    (fun l -> Alcotest.(check bool) "within chi/omega steps" true (l <= 32.0))
    r.Trial.lifetimes

let test_probe_s0_so_before_s1_so () =
  let cfg = { Probe_level.default with chi = 1024; omega = 8 } in
  let s0 = Probe_level.estimate ~trials:600 ~seed:19 Systems.S0_SO cfg in
  let s1 = Probe_level.estimate ~trials:600 ~seed:19 Systems.S1_SO cfg in
  Alcotest.(check bool) "S1SO outlives S0SO at probe level" true
    (s1.Trial.mean > s0.Trial.mean)

let test_probe_s2_po_beats_s1_po_at_half_kappa () =
  let cfg = { Probe_level.default with chi = 1024; omega = 8; kappa = 0.5 } in
  let s2 = Probe_level.estimate ~trials:600 ~seed:23 Systems.S2_PO cfg in
  let s1 = Probe_level.estimate ~trials:600 ~seed:23 Systems.S1_PO cfg in
  Alcotest.(check bool) "proxies pay off" true (s2.Trial.mean > s1.Trial.mean)

let test_probe_s2_so_collapses () =
  (* permanent launch pads: S2SO dies much faster than S2PO *)
  let cfg = { Probe_level.default with chi = 1024; omega = 8; kappa = 0.5 } in
  let po = Probe_level.estimate ~trials:400 ~seed:29 Systems.S2_PO cfg in
  let so = Probe_level.estimate ~trials:400 ~seed:29 Systems.S2_SO cfg in
  Alcotest.(check bool) "SO collapses" true (so.Trial.mean < po.Trial.mean /. 2.0)

let test_probe_invalid_config () =
  let lifetime system cfg () = ignore (Probe_level.lifetime system cfg (Prng.create ~seed:1)) in
  Alcotest.check_raises "chi too small" (Invalid_argument "Probe_level: chi must be >= 2")
    (lifetime Systems.S1_PO { Probe_level.default with chi = 1 });
  (* a key space smaller than the distinct keys a system draws would make
     key assignment loop forever *)
  let too_few system chi np keys =
    let cfg = { Probe_level.default with chi; omega = 1; np } in
    Alcotest.check_raises
      (Printf.sprintf "%s at chi %d" (Systems.system_to_string system) chi)
      (Invalid_argument
         (Printf.sprintf "Probe_level: chi must be >= %d for %s (it draws %d distinct keys)" keys
            (Systems.system_to_string system) keys))
      (lifetime system cfg)
  in
  too_few Systems.S0_SO 3 3 4;
  too_few Systems.S0_PO 2 3 4;
  too_few Systems.S2_PO 3 3 4;
  too_few Systems.S2_SO 5 5 6;
  Alcotest.check_raises "estimate rejects it too"
    (Invalid_argument "Probe_level: chi must be >= 4 for s2po (it draws 4 distinct keys)")
    (fun () ->
      ignore
        (Probe_level.estimate ~trials:2 Systems.S2_PO { Probe_level.default with chi = 3 }));
  (* the smallest admissible key spaces terminate *)
  List.iter
    (fun (system, chi) ->
      let cfg = { Probe_level.default with chi; omega = 2 } in
      Alcotest.(check bool)
        (Printf.sprintf "%s runs at chi %d" (Systems.system_to_string system) chi)
        true
        (Probe_level.lifetime system cfg (Prng.create ~seed:1) <> None))
    [ (Systems.S0_SO, 4); (Systems.S0_PO, 4); (Systems.S1_SO, 2); (Systems.S2_SO, 4);
      (Systems.S2_PO, 4) ]

(* Probe-level estimates pinned at a fixed seed: any change to the
   attacker's draw sequence (Knowledge) or to the trial logic moves a mean
   or a censored count. chi 1000 is not a multiple of 64; a 300-step
   horizon censors some PO trials. *)
let probe_pins =
  [
    (64, Systems.S0_SO, 3.3499999999999996, 0);
    (64, Systems.S1_SO, 4.3750000000000009, 0);
    (64, Systems.S0_PO, 16.750000000000004, 0);
    (64, Systems.S1_PO, 10.174999999999999, 0);
    (64, Systems.S2_PO, 12.25, 0);
    (64, Systems.S2_SO, 3.875, 0);
    (1000, Systems.S0_SO, 49.899999999999999, 0);
    (1000, Systems.S1_SO, 63.649999999999991, 0);
    (1000, Systems.S0_PO, 172.25, 36);
    (1000, Systems.S1_PO, 111.12820512820512, 1);
    (1000, Systems.S2_PO, 98.620689655172413, 11);
    (1000, Systems.S2_SO, 52.57500000000001, 0);
  ]

let test_probe_pinned_estimates () =
  List.iter
    (fun (chi, system, mean, censored) ->
      let cfg = { Probe_level.default with chi; max_steps = 300 } in
      let r = Probe_level.estimate ~trials:40 ~seed:2024 system cfg in
      let name what = Printf.sprintf "%s chi=%d %s" (Systems.system_to_string system) chi what in
      Alcotest.(check (float 0.0)) (name "mean") mean r.Trial.mean;
      Alcotest.(check int) (name "censored") censored r.Trial.censored)
    probe_pins

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"step sampler lifetimes are positive" ~count:100
      (pair (float_range 0.001 0.05) small_int)
      (fun (alpha, seed) ->
        let cfg = { Step_level.default with alpha } in
        match Step_level.sampler Systems.S2_PO cfg (Prng.create ~seed) with
        | Some steps -> steps >= 1
        | None -> true);
    Test.make ~name:"probe lifetime bounded by key exhaustion for S1SO" ~count:50
      small_int
      (fun seed ->
        let cfg = { Probe_level.default with chi = 128; omega = 4; max_steps = 1000 } in
        match Probe_level.lifetime Systems.S1_SO cfg (Prng.create ~seed) with
        | Some steps -> steps <= 32
        | None -> false);
  ]

let () =
  Alcotest.run "fortress_mc"
    [
      ( "trial",
        [
          Alcotest.test_case "deterministic sampler" `Quick test_trial_deterministic_sampler;
          Alcotest.test_case "censoring" `Quick test_trial_censoring;
          Alcotest.test_case "reproducible" `Quick test_trial_reproducible;
          Alcotest.test_case "invalid trials" `Quick test_trial_invalid;
        ] );
      ( "step-level",
        [
          Alcotest.test_case "s1po agrees" `Slow test_step_s1po;
          Alcotest.test_case "s0po agrees" `Slow test_step_s0po;
          Alcotest.test_case "s1so agrees" `Slow test_step_s1so;
          Alcotest.test_case "s0so agrees" `Slow test_step_s0so;
          Alcotest.test_case "s2po agrees" `Slow test_step_s2po;
          Alcotest.test_case "kappa=1 worse than s1po" `Slow
            test_step_s2po_kappa_one_worse_than_s1po;
          Alcotest.test_case "censoring horizon" `Quick test_step_censoring_horizon;
          Alcotest.test_case "invalid config" `Quick test_step_invalid_config;
        ] );
      ( "probe-level",
        [
          Alcotest.test_case "alpha_of" `Quick test_probe_alpha_of;
          Alcotest.test_case "s1po matches analytic" `Slow test_probe_s1_po_matches_analytic;
          Alcotest.test_case "s1so matches analytic" `Slow test_probe_s1_so_matches_analytic;
          Alcotest.test_case "s1so exhaustive termination" `Quick
            test_probe_s1_so_never_censors_past_chi;
          Alcotest.test_case "s0so falls before s1so" `Slow test_probe_s0_so_before_s1_so;
          Alcotest.test_case "s2po beats s1po" `Slow test_probe_s2_po_beats_s1_po_at_half_kappa;
          Alcotest.test_case "s2so collapses" `Slow test_probe_s2_so_collapses;
          Alcotest.test_case "invalid config" `Quick test_probe_invalid_config;
          Alcotest.test_case "pinned estimates" `Quick test_probe_pinned_estimates;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
