module Table = Fortress_util.Table
module Systems = Fortress_model.Systems

type part = Table of Table.t | Text of string

type t = { id : string; title : string; quick : bool; render : unit -> part list }

let verdict b = if b then "holds" else "FAILS"
let analytic id title render = { id; title; quick = true; render }
let monte_carlo id title render = { id; title; quick = false; render }
let jobs () = Fortress_par.Exec.default_jobs ()

let ordering () =
  let r = Figures.ordering ~points:7 () in
  [
    Table (Figures.ordering_table ~points:7 ());
    Text
      (Printf.sprintf
         "\nS0PO -> S2PO (kappa > 0): %s\nS2PO -> S1PO (kappa = 0.5): %s\nS1PO -> S1SO: %s\nS1SO -> S0SO: %s\n"
         (verdict r.Figures.s0po_beats_s2po)
         (verdict r.Figures.s2po_beats_s1po_at_low_kappa)
         (verdict r.Figures.s1po_beats_s1so) (verdict r.Figures.s1so_beats_s0so));
  ]

(* A8's operating point: one request every 30 time units over a 30-step
   horizon, kappa 0.8, chi = 2^14 *)
let degradation () =
  let spec = Result.get_ok (Fortress_load.Workload.spec_of_string "uniform:period=30") in
  let config =
    { Inject.default_config with trials = 1; chi = 1 lsl 14; kappa = 0.8; max_steps = 30 }
  in
  [
    Table
      (Load_compare.degradation_table
         (Load_compare.degradation ~config ~omegas:[ 0; 8; 32; 128 ] spec));
  ]

let threats () =
  let module Threat = Fortress_defense.Threat in
  let ks = Fortress_defense.Keyspace.pax_aslr_32bit in
  [
    Table
      (Threat.matrix_table
         [ []; [ Threat.W_xor_x ]; [ Threat.Isr ks ]; [ Threat.Heap_randomization ks ];
           [ Threat.W_xor_x; Threat.Isr ks; Threat.Heap_randomization ks ]; [ Threat.Aslr ks ];
           [ Threat.W_xor_x; Threat.Aslr ks ];
           [ Threat.W_xor_x; Threat.Aslr ks; Threat.Got_randomization ks ] ]);
    Text
      "\n\
       reading the table (paper section 2.1): W^X, ISR and heap randomization\n\
       are all bypassed by return-to-libc; only address randomization forces\n\
       the attacker into the keyed de-randomization game the rest of this\n\
       repository models, and layering randomizers multiplies the entropy.\n";
  ]

let v1 () =
  let lines = Validation.run ~trials:200 ~jobs:(jobs ()) () in
  [
    Table (Validation.table lines);
    Text
      (Printf.sprintf "max |step-MC - analytic| / analytic = %.3f\n"
         (Validation.max_relative_error lines));
  ]

let v2 () =
  let line = Validation.protocol ~trials:60 () in
  [
    Table (Validation.protocol_table line);
    Text (Printf.sprintf "stack agreement: %s\n" (verdict (Validation.protocol_agrees line)));
  ]

let ladder () =
  let module Plan = Fortress_faults.Plan in
  let report =
    Inject.run
      ~config:{ Inject.default_config with trials = 6 }
      ~plans:[ Plan.lossy; Plan.partition; Plan.crashy; Plan.chaos ]
      ()
  in
  [
    Table (Inject.table report);
    Text
      (Printf.sprintf "escalation ordering (EL non-increasing): %s\n"
         (verdict (Inject.monotone_non_increasing report)));
  ]

let all =
  [
    analytic "figure1" "Figure 1: expected lifetime comparison (analytic, kappa = 0.5)" (fun () ->
        [ Table (Figures.figure1_table ~points:13 ()) ]);
    analytic "figure1-plot" "Figure 1 (plot)" (fun () -> [ Text (Figures.figure1_plot ()) ]);
    analytic "figure2" "Figure 2: S2PO expected lifetime as kappa varies" (fun () ->
        [ Table (Figures.figure2_table ~points:13 ()) ]);
    analytic "figure2-plot" "Figure 2 (plot)" (fun () -> [ Text (Figures.figure2_plot ()) ]);
    analytic "ordering" "Ordering check (paper section 6 summary chain)" ordering;
    analytic "crossover" "Kappa crossover" (fun () ->
        [
          Text
            (String.concat ""
               (List.map
                  (fun alpha ->
                    Printf.sprintf "alpha = %-8g kappa* = %.4f\n" alpha
                      (Figures.kappa_crossover_at ~alpha))
                  [ 1e-4; 1e-3; 1e-2 ]));
        ]);
    analytic "a1" "Ablation A1: proxy count" (fun () ->
        [ Table (Ablations.proxy_count_table ~points:5 ()) ]);
    monte_carlo "a2" "Ablation A2: key entropy under SO (probe-level)" (fun () ->
        [ Table (Ablations.entropy_table ~trials:100 ~jobs:(jobs ()) ()) ]);
    analytic "a3" "Ablation A3: launch-pad discipline (alpha = 0.005)" (fun () ->
        [ Table (Ablations.launchpad_table ()) ]);
    monte_carlo "a4" "Ablation A4: proxy detection threshold -> effective kappa" (fun () ->
        [ Table (Ablations.detection_table ()) ]);
    monte_carlo "a5" "Ablation A5: limited diversity (candidate-set size)" (fun () ->
        [ Table (Ablations.limited_diversity_table ~trials:1000 ()) ]);
    monte_carlo "a6" "Ablation A6: proxy overhead on the request path" (fun () ->
        [ Table (Ablations.overhead_table ()) ]);
    analytic "a7" "Ablation A7: optimizing attacker budget split" (fun () ->
        [ Table (Ablations.budget_split_table ()) ]);
    monte_carlo "a8" "Service quality under attack (degradation)" degradation;
    analytic "podc" "PODC 2009 claim: fortified PB vs SMR with proactive recovery" (fun () ->
        [
          Table (Figures.podc_claim_table ~points:7 ());
          Text (Printf.sprintf "claim %s\n" (verdict (Figures.podc_claim_holds ~points:7 ())));
        ]);
    analytic "choose" "Design choice map" (fun () ->
        [
          Text
            (Choice_map.map_string ()
            ^ "\n\
               the DSM premium (EL(S0PO) / EL(S2PO)) - the lifetime factor bought by\n\
               making the service a deterministic state machine:\n");
          Table (Choice_map.premium_table ());
        ]);
    monte_carlo "shapes" "Lifetime distribution shapes (alpha = 0.002, kappa = 0.5)" (fun () ->
        [
          Table
            (Distributions.table
               (List.map
                  (fun s -> Distributions.profile ~trials:2000 s ~alpha:0.002 ~kappa:0.5)
                  [ Systems.S1_PO; Systems.S2_PO; Systems.S1_SO; Systems.S0_SO ]));
        ]);
    analytic "threats" "Threat matrix (paper section 2.1)" threats;
    analytic "sensitivity" "Sensitivity: elasticities at alpha = 1e-3, kappa = 0.5" (fun () ->
        [ Table (Sensitivity.table ()) ]);
    monte_carlo "v1" "Validation V1: analytic vs step-level vs probe-level" v1;
    monte_carlo "v2" "Validation V2: full packet-level stack vs the models" v2;
    monte_carlo "ladder" "Fault-injection campaign: EL under the built-in plan ladder" ladder;
  ]

let find id = List.find (fun a -> a.id = id) all

let text parts =
  String.concat "" (List.map (function Table t -> Table.render t | Text s -> s) parts)

let table id =
  Option.get (List.find_map (function Table t -> Some t | Text _ -> None) ((find id).render ()))
