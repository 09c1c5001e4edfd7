open Fortress_exp
module Systems = Fortress_model.Systems
module Table = Fortress_util.Table

(* ---- Sweep ---- *)

let test_log_spaced () =
  let grid = Sweep.log_spaced ~lo:1.0 ~hi:100.0 ~points:3 in
  match grid with
  | [ a; b; c ] ->
      Alcotest.(check (float 1e-9)) "lo" 1.0 a;
      Alcotest.(check (float 1e-6)) "mid" 10.0 b;
      Alcotest.(check (float 1e-6)) "hi" 100.0 c
  | _ -> Alcotest.fail "expected 3 points"

let test_log_spaced_validation () =
  Alcotest.check_raises "bad range" (Invalid_argument "Sweep.log_spaced: need 0 < lo < hi")
    (fun () -> ignore (Sweep.log_spaced ~lo:1.0 ~hi:0.5 ~points:3));
  Alcotest.check_raises "too few points"
    (Invalid_argument "Sweep.log_spaced: need at least 2 points") (fun () ->
      ignore (Sweep.log_spaced ~lo:1.0 ~hi:2.0 ~points:1))

let test_alpha_grid_covers_paper_range () =
  let grid = Sweep.alpha_grid () in
  Alcotest.(check (float 1e-9)) "starts at 1e-5" 1e-5 (List.hd grid);
  Alcotest.(check (float 1e-9)) "ends at 1e-2" 1e-2 (List.nth grid (List.length grid - 1))

let test_paper_kappas () =
  Alcotest.(check int) "seven values" 7 (List.length Sweep.paper_kappas);
  Alcotest.(check bool) "includes 0 and 1" true
    (List.mem 0.0 Sweep.paper_kappas && List.mem 1.0 Sweep.paper_kappas)

(* ---- Figure 1 ---- *)

let test_figure1_rows_shape () =
  let rows = Figures.figure1_rows ~points:5 () in
  Alcotest.(check int) "five rows" 5 (List.length rows);
  List.iter
    (fun r ->
      let open Figures in
      Alcotest.(check bool) "all lifetimes positive" true
        (r.s0_so > 0.0 && r.s1_so > 0.0 && r.s1_po > 0.0 && r.s2_po > 0.0 && r.s0_po > 0.0))
    rows

let test_figure1_trends_in_every_row () =
  List.iter
    (fun r ->
      let open Figures in
      Alcotest.(check bool) "S1SO > S0SO" true (r.s1_so > r.s0_so);
      Alcotest.(check bool) "S1PO > S1SO" true (r.s1_po > r.s1_so);
      Alcotest.(check bool) "S2PO > S1PO (kappa 0.5)" true (r.s2_po > r.s1_po);
      Alcotest.(check bool) "S0PO > S2PO" true (r.s0_po > r.s2_po))
    (Figures.figure1_rows ~points:9 ())

let test_figure1_table_renders () =
  let t = Figures.figure1_table ~points:4 () in
  Alcotest.(check int) "rows" 4 (Table.row_count t);
  Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0)

let test_figure1_table_with_mc () =
  let t = Figures.figure1_table ~points:2 ~mc_trials:50 () in
  Alcotest.(check int) "rows" 2 (Table.row_count t)

(* ---- Figure 2 ---- *)

let test_figure2_rows_shape () =
  let rows = Figures.figure2_rows ~points:4 () in
  Alcotest.(check int) "four alphas" 4 (List.length rows);
  List.iter
    (fun r -> Alcotest.(check int) "seven kappas" 7 (List.length r.Figures.by_kappa))
    rows

let test_figure2_monotone_in_kappa () =
  List.iter
    (fun r ->
      let els = List.map snd r.Figures.by_kappa in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a >= b && decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "EL falls as kappa grows" true (decreasing els))
    (Figures.figure2_rows ~points:5 ())

let test_figure2_kappa_zero_dwarfs_the_rest () =
  (* at kappa = 0 only the launch-pad (O(alpha^2)) and all-proxies
     (O(alpha^3)) channels remain, so the lifetime gains a factor of about
     kappa / (np alpha / 2) — over an order of magnitude across the range *)
  let rows = Figures.figure2_rows ~points:3 ~kappas:[ 0.0; 0.5 ] () in
  List.iter
    (fun r ->
      match r.Figures.by_kappa with
      | [ (_, at0); (_, at_half) ] ->
          Alcotest.(check bool) "kappa 0 is an order of magnitude better" true
            (at0 > 10.0 *. at_half)
      | _ -> Alcotest.fail "two kappas expected")
    rows

(* ---- Ordering ---- *)

let test_ordering_holds () =
  let r = Figures.ordering ~points:7 () in
  Alcotest.(check bool) "S0PO beats S2PO" true r.Figures.s0po_beats_s2po;
  Alcotest.(check bool) "S2PO beats S1PO at 0.5" true r.Figures.s2po_beats_s1po_at_low_kappa;
  Alcotest.(check bool) "S1PO beats S1SO" true r.Figures.s1po_beats_s1so;
  Alcotest.(check bool) "S1SO beats S0SO" true r.Figures.s1so_beats_s0so;
  Alcotest.(check int) "crossovers per alpha" 7 (List.length r.Figures.kappa_crossover)

let test_kappa_crossover_properties () =
  (* the crossover exists strictly below 1 and approaches 1 as alpha -> 0 *)
  let at_large = Figures.kappa_crossover_at ~alpha:0.01 in
  let at_small = Figures.kappa_crossover_at ~alpha:1e-4 in
  Alcotest.(check bool) "below 1 at alpha=0.01" true (at_large < 1.0);
  Alcotest.(check bool) "crossover grows as alpha shrinks" true (at_small > at_large);
  (* at the boundary S2PO and S1PO lifetimes agree *)
  let k = at_large in
  let s2 = Systems.s2_po ~alpha:0.01 ~kappa:k () in
  let s1 = Systems.s1_po ~alpha:0.01 in
  Alcotest.(check bool) "boundary is a tie" true (Float.abs (s2 -. s1) /. s1 < 1e-3)

(* ---- Ablations ---- *)

let test_ablation_np_monotone () =
  let t = Ablations.proxy_count_table ~points:3 () in
  Alcotest.(check int) "rows" 3 (Table.row_count t)

let test_ablation_np_values_monotone () =
  (* the direction depends on the launch-pad discipline: with Next_step
     (launch pads neutralised by the rekey boundary) extra proxies only
     shrink the all-proxies-fall channel, so EL weakly increases; with
     Within_step each extra proxy is an extra O(alpha^2) launch-pad channel
     at fixed per-proxy attack budget, so EL weakly DECREASES — more
     fortification is more attack surface. Ablation A1 exists to surface
     exactly this trade-off. *)
  List.iter
    (fun alpha ->
      let prev_next = ref 0.0 in
      List.iter
        (fun np ->
          let next = Systems.s2_po ~launchpad:Systems.Next_step ~np ~alpha ~kappa:0.5 () in
          Alcotest.(check bool) "next-step: weakly increasing in np" true
            (next >= !prev_next -. 1e-9);
          prev_next := next)
        [ 1; 2; 3; 4; 5 ];
      (* within-step is non-monotone with a peak at np = 3 (for alpha <
         1/2): up to there, shrinking the all-proxies-fall channel
         dominates; beyond it, every extra proxy is just extra launch-pad
         surface. The paper's choice np = 3 is optimal under this
         discipline. *)
      let within np = Systems.s2_po ~launchpad:Systems.Remaining ~np ~alpha ~kappa:0.5 () in
      Alcotest.(check bool) "within-step: rising to the np=3 peak" true
        (within 3 >= within 2 && within 2 > within 1);
      let prev_within = ref (within 3) in
      List.iter
        (fun np ->
          let el = within np in
          Alcotest.(check bool) "within-step: decreasing past np=3" true
            (el <= !prev_within +. 1e-9);
          prev_within := el)
        [ 4; 5; 6 ])
    [ 1e-3; 1e-2 ]

let test_ablation_entropy_table () =
  let t = Ablations.entropy_table ~chis:[ 256; 1024 ] ~omega:8 ~trials:40 () in
  Alcotest.(check int) "two rows" 2 (Table.row_count t)

let test_ablation_launchpad_table () =
  let t = Ablations.launchpad_table () in
  (* 7 kappa rows plus the crossover row *)
  Alcotest.(check int) "rows" 8 (Table.row_count t)

let test_ablation_detection_table () =
  let t = Ablations.detection_table ~thresholds:[ 5; 100 ] ~steps:5 () in
  Alcotest.(check int) "two thresholds" 2 (Table.row_count t)

(* ---- Validation ---- *)

let test_validation_agreement () =
  let lines =
    Validation.run ~chi:1024 ~omega:8 ~trials:300
      ~systems:[ Systems.S1_PO; Systems.S1_SO; Systems.S0_SO ] ()
  in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  let err = Validation.max_relative_error lines in
  Alcotest.(check bool) (Printf.sprintf "max relative error %.3f < 0.15" err) true (err < 0.15)

let test_ablation_limited_diversity_interpolates () =
  let module Limited = Fortress_mc.Limited in
  let alpha = 0.01 in
  let el c = Limited.expected_lifetime ~trials:3000 { Limited.default with alpha; candidates = c } in
  let so = Systems.s1_so ~alpha in
  let po = Systems.s1_po ~alpha in
  let c1 = el 1 and c4 = el 4 and c32 = el 32 in
  (* c = 1 recovers S1SO *)
  Alcotest.(check bool)
    (Printf.sprintf "c=1 near S1SO (%.1f vs %.1f)" c1 so)
    true
    (Float.abs (c1 -. so) /. so < 0.1);
  (* monotone improvement towards the PO anchor *)
  Alcotest.(check bool) "more candidates help" true (c4 > c1 && c32 > c4);
  Alcotest.(check bool)
    (Printf.sprintf "c=32 near S1PO (%.1f vs %.1f)" c32 po)
    true
    (Float.abs (c32 -. po) /. po < 0.15)

let test_ablation_overhead_factors () =
  let measurements = Overhead.compare_tiers ~requests:50 () in
  match measurements with
  | [ direct; one_proxy; three_proxies ] ->
      Alcotest.(check bool) "proxies add latency" true
        (one_proxy.Overhead.mean_rtt > direct.Overhead.mean_rtt);
      (* extra proxies add redundancy, not extra hops *)
      Alcotest.(check bool) "3 proxies no slower than 1" true
        (three_proxies.Overhead.mean_rtt <= one_proxy.Overhead.mean_rtt +. 1e-9);
      (* the overhead is bounded: well under 2.5x with our symmetric links *)
      Alcotest.(check bool) "modest factor" true
        (one_proxy.Overhead.mean_rtt /. direct.Overhead.mean_rtt < 2.5)
  | _ -> Alcotest.fail "expected three measurements"

let test_ablation_tables_render () =
  Alcotest.(check bool) "diversity table" true
    (Table.row_count (Ablations.limited_diversity_table ~candidate_counts:[ 1; 2 ] ~trials:100 ())
     = 2);
  Alcotest.(check bool) "overhead table" true
    (Table.row_count (Ablations.overhead_table ~requests:20 ()) = 3)

(* A8's operating point (one trial, kappa 0.8, chi = 2^14) over [steps]
   steps, with one legitimate request every [period] time units *)
let degradation_points ~omegas ~steps ~period =
  let spec =
    Result.get_ok
      (Fortress_load.Workload.spec_of_string (Printf.sprintf "uniform:period=%g" period))
  in
  let config =
    { Inject.default_config with trials = 1; chi = 1 lsl 14; kappa = 0.8; max_steps = steps }
  in
  Load_compare.degradation ~config ~omegas spec

let test_degradation_service_quality_holds () =
  let fortress =
    List.filter
      (fun p -> p.Load_compare.dp_stack = "fortress")
      (degradation_points ~omegas:[ 0; 64 ] ~steps:15 ~period:37.5)
  in
  match fortress with
  | [ baseline; under_attack ] ->
      let avail p = Option.value ~default:0.0 p.Load_compare.dp_availability in
      let p50 p = Option.get p.Load_compare.dp_p50 in
      Alcotest.(check bool) "baseline serves everything" true (avail baseline > 0.95);
      (* proxies absorb the probe load: legitimate quality is unaffected *)
      Alcotest.(check bool) "no loss under attack" true (avail under_attack > 0.95);
      Alcotest.(check bool) "no latency inflation" true
        (p50 under_attack < p50 baseline *. 1.2)
  | _ -> Alcotest.fail "expected two fortress points"

let test_degradation_table () =
  let points = degradation_points ~omegas:[ 0 ] ~steps:5 ~period:50.0 in
  Alcotest.(check int) "one row per stack" 2
    (Table.row_count (Load_compare.degradation_table points))

(* ---- Sensitivity ---- *)

let test_sensitivity_geometric_elasticity () =
  (* EL = 1/alpha gives elasticity exactly -1; EL ~ 1/alpha^2 gives -2 *)
  let r1 = Sensitivity.elasticity Systems.S1_PO ~alpha:1e-3 ~kappa:0.5 in
  Alcotest.(check (float 0.01)) "s1po is -1" (-1.0) r1.Sensitivity.d_alpha;
  let r0 = Sensitivity.elasticity Systems.S0_PO ~alpha:1e-3 ~kappa:0.5 in
  Alcotest.(check (float 0.01)) "s0po is -2 (two intrusions needed)" (-2.0)
    r0.Sensitivity.d_alpha

let test_sensitivity_kappa_only_two_tier () =
  List.iter
    (fun sys ->
      let r = Sensitivity.elasticity sys ~alpha:1e-3 ~kappa:0.5 in
      Alcotest.(check (float 0.0)) "one-tier systems ignore kappa" 0.0 r.Sensitivity.d_kappa)
    [ Systems.S0_SO; Systems.S1_SO; Systems.S0_PO; Systems.S1_PO ];
  let r2 = Sensitivity.elasticity Systems.S2_PO ~alpha:1e-3 ~kappa:0.5 in
  Alcotest.(check bool) "s2po responds to kappa" true (r2.Sensitivity.d_kappa < -0.9)

let test_sensitivity_table () =
  Alcotest.(check int) "six rows" 6 (Table.row_count (Sensitivity.table ()))

(* ---- Export ---- *)

let test_export_artefacts () =
  let artefacts = Export.artefacts () in
  Alcotest.(check int) "nine artefacts" 9 (List.length artefacts);
  List.iter
    (fun (name, contents) ->
      Alcotest.(check bool) (name ^ " non-empty") true (String.length contents > 0))
    artefacts;
  (* the figure CSV parses into the expected column count *)
  let f1 = List.assoc "figure1.csv" artefacts in
  (match String.split_on_char '\n' f1 with
  | header :: _ ->
      Alcotest.(check int) "six columns" 6 (List.length (String.split_on_char ',' header))
  | [] -> Alcotest.fail "empty csv")

let test_export_write_all () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fortress-export-test" in
  let written = Export.write_all ~dir in
  Alcotest.(check int) "nine files" 9 (List.length written);
  List.iter
    (fun (path, bytes) ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
      Alcotest.(check bool) "size recorded" true (bytes > 0))
    written;
  List.iter (fun (path, _) -> Sys.remove path) written

let test_export_write_all_nested_dir () =
  (* regression: write_all used a single mkdir and failed with ENOENT when
     the parent of [dir] did not exist *)
  let root =
    let f = Filename.temp_file "fortress-export-nested" "" in
    Sys.remove f;
    f
  in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let written = Export.write_all ~dir in
  Alcotest.(check int) "nine files in nested dir" 9 (List.length written);
  List.iter
    (fun (path, _) -> Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path))
    written;
  List.iter (fun (path, _) -> Sys.remove path) written;
  Sys.rmdir dir;
  Sys.rmdir (Filename.concat root "a");
  Sys.rmdir root

(* ---- Choice map ---- *)

let test_choice_map_matches_paper_conclusion () =
  (* section 7: S0PO for any kappa > 0, FORTRESS at kappa = 0 *)
  List.iter
    (fun cell ->
      let expected =
        if cell.Choice_map.kappa > 0.0 then Systems.S0_PO else Systems.S2_PO
      in
      Alcotest.(check bool)
        (Printf.sprintf "winner at alpha=%g kappa=%g" cell.Choice_map.alpha
           cell.Choice_map.kappa)
        true
        (cell.Choice_map.winner = expected))
    (Choice_map.grid ~alpha_points:5 ~kappa_points:5 ())

let test_choice_map_renders () =
  let map = Choice_map.map_string ~alpha_points:10 ~kappa_points:5 () in
  Alcotest.(check bool) "has S0 region" true (String.contains map '0');
  Alcotest.(check bool) "has FORTRESS region" true (String.contains map '2');
  Alcotest.(check int) "premium table rows" 7 (Table.row_count (Choice_map.premium_table ()))

(* ---- Report ---- *)

let test_report_quick_sections () =
  let report = Report.generate ~fidelity:Report.Quick () in
  List.iter
    (fun title ->
      let header = "## " ^ title in
      let found =
        let nh = String.length report and nn = String.length header in
        let rec go i = i + nn <= nh && (String.sub report i nn = header || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (Printf.sprintf "section %S present" title) true found)
    (Report.section_titles Report.Quick)

let test_report_contains_figures () =
  let report = Report.generate ~fidelity:Report.Quick () in
  let contains needle =
    let nh = String.length report and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub report i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "figure 1 data present" true (contains "S0SO");
  Alcotest.(check bool) "claim verdict present" true (contains "claim holds")

(* ---- PODC claim ---- *)

let test_podc_claim_holds () =
  Alcotest.(check bool) "S2SO(k=0) >= S0SO across the range" true
    (Figures.podc_claim_holds ~points:7 ());
  (* and the margin is material, not epsilon *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "at least 1.3x" true
        (r.Figures.fortified_pb > 1.3 *. r.Figures.smr_recovery))
    (Figures.podc_claim ~points:7 ())

let test_podc_claim_table () =
  let t = Figures.podc_claim_table ~points:5 () in
  Alcotest.(check int) "rows" 5 (Table.row_count t)

(* ---- Distributions ---- *)

let test_distribution_po_memoryless () =
  let p = Distributions.profile ~trials:4000 Systems.S1_PO ~alpha:0.005 ~kappa:0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "geometric cv %.3f near 1" p.Distributions.cv)
    true
    (p.Distributions.cv > 0.9 && p.Distributions.cv < 1.1);
  Alcotest.(check bool) "heavy tail" true (p.Distributions.p90_over_median > 2.5)

let test_distribution_so_cutoff () =
  let p = Distributions.profile ~trials:4000 Systems.S1_SO ~alpha:0.005 ~kappa:0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "uniform-like cv %.3f near 0.58" p.Distributions.cv)
    true
    (p.Distributions.cv > 0.5 && p.Distributions.cv < 0.65);
  Alcotest.(check bool) "light tail" true (p.Distributions.p90_over_median < 2.0);
  (* hard cutoff: no lifetime beyond the exhaustion horizon 1/alpha = 200 *)
  Array.iter
    (fun l -> Alcotest.(check bool) "within horizon" true (l <= 201.0))
    p.Distributions.result.Fortress_mc.Trial.lifetimes

let test_distribution_render () =
  let p = Distributions.profile ~trials:500 Systems.S2_PO ~alpha:0.01 ~kappa:0.5 in
  let t = Distributions.table [ p ] in
  Alcotest.(check int) "one row" 1 (Table.row_count t);
  Alcotest.(check bool) "histogram non-empty" true
    (String.length (Distributions.render_histogram p) > 0)

let test_validation_protocol_stack () =
  let line = Validation.protocol ~trials:50 () in
  Alcotest.(check bool)
    (Printf.sprintf "campaign %.1f / probe %.1f / analytic %.1f agree"
       line.Validation.campaign.Fortress_mc.Trial.mean
       line.Validation.pl_probe.Fortress_mc.Trial.mean line.Validation.pl_analytic)
    true
    (Validation.protocol_agrees line);
  Alcotest.(check int) "no censored campaigns" 0
    line.Validation.campaign.Fortress_mc.Trial.censored

let test_validation_protocol_table () =
  let line = Validation.protocol ~trials:10 () in
  Alcotest.(check int) "three tiers" 3 (Table.row_count (Validation.protocol_table line))

let test_validation_table_renders () =
  let lines = Validation.run ~chi:512 ~omega:8 ~trials:50 ~systems:[ Systems.S1_PO ] () in
  let t = Validation.table lines in
  Alcotest.(check int) "one row" 1 (Table.row_count t)

let () =
  Alcotest.run "fortress_exp"
    [
      ( "sweep",
        [
          Alcotest.test_case "log spacing" `Quick test_log_spaced;
          Alcotest.test_case "validation" `Quick test_log_spaced_validation;
          Alcotest.test_case "alpha grid range" `Quick test_alpha_grid_covers_paper_range;
          Alcotest.test_case "paper kappas" `Quick test_paper_kappas;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "row shape" `Quick test_figure1_rows_shape;
          Alcotest.test_case "paper trends hold in every row" `Quick
            test_figure1_trends_in_every_row;
          Alcotest.test_case "table renders" `Quick test_figure1_table_renders;
          Alcotest.test_case "table with MC columns" `Slow test_figure1_table_with_mc;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "row shape" `Quick test_figure2_rows_shape;
          Alcotest.test_case "monotone in kappa" `Quick test_figure2_monotone_in_kappa;
          Alcotest.test_case "kappa zero dwarfs" `Quick test_figure2_kappa_zero_dwarfs_the_rest;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "summary chain holds" `Quick test_ordering_holds;
          Alcotest.test_case "kappa crossover" `Quick test_kappa_crossover_properties;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "np table" `Quick test_ablation_np_monotone;
          Alcotest.test_case "np monotone" `Quick test_ablation_np_values_monotone;
          Alcotest.test_case "entropy table" `Slow test_ablation_entropy_table;
          Alcotest.test_case "launchpad table" `Quick test_ablation_launchpad_table;
          Alcotest.test_case "detection table" `Quick test_ablation_detection_table;
          Alcotest.test_case "limited diversity interpolates" `Slow
            test_ablation_limited_diversity_interpolates;
          Alcotest.test_case "overhead factors" `Quick test_ablation_overhead_factors;
          Alcotest.test_case "new tables render" `Quick test_ablation_tables_render;
        ] );
      ( "report",
        [
          Alcotest.test_case "quick sections present" `Quick test_report_quick_sections;
          Alcotest.test_case "contains figures" `Quick test_report_contains_figures;
        ] );
      ( "choice-map",
        [
          Alcotest.test_case "matches the section-7 conclusion" `Quick
            test_choice_map_matches_paper_conclusion;
          Alcotest.test_case "renders" `Quick test_choice_map_renders;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "geometric elasticities" `Quick test_sensitivity_geometric_elasticity;
          Alcotest.test_case "kappa only for two-tier" `Quick test_sensitivity_kappa_only_two_tier;
          Alcotest.test_case "table" `Quick test_sensitivity_table;
        ] );
      ( "export",
        [
          Alcotest.test_case "artefacts" `Quick test_export_artefacts;
          Alcotest.test_case "write_all" `Quick test_export_write_all;
          Alcotest.test_case "write_all nested dir" `Quick test_export_write_all_nested_dir;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "service quality under attack" `Quick
            test_degradation_service_quality_holds;
          Alcotest.test_case "table" `Quick test_degradation_table;
        ] );
      ( "validation",
        [
          Alcotest.test_case "three-tier agreement" `Slow test_validation_agreement;
          Alcotest.test_case "table renders" `Quick test_validation_table_renders;
          Alcotest.test_case "packet-level stack agrees" `Slow test_validation_protocol_stack;
          Alcotest.test_case "protocol table" `Quick test_validation_protocol_table;
        ] );
      ( "podc-claim",
        [
          Alcotest.test_case "fortified PB >= SMR with recovery" `Quick test_podc_claim_holds;
          Alcotest.test_case "table shape" `Quick test_podc_claim_table;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "PO is memoryless" `Slow test_distribution_po_memoryless;
          Alcotest.test_case "SO has a hard cutoff" `Slow test_distribution_so_cutoff;
          Alcotest.test_case "table and histogram render" `Slow test_distribution_render;
        ] );
    ]
