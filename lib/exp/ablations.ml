module Systems = Fortress_model.Systems
module Table = Fortress_util.Table
module Probe_level = Fortress_mc.Probe_level
module Trial = Fortress_mc.Trial
module Deployment = Fortress_core.Deployment
module Proxy = Fortress_core.Proxy
module Obfuscation = Fortress_core.Obfuscation
module Campaign = Fortress_attack.Campaign
module Keyspace = Fortress_defense.Keyspace

let sci v = Printf.sprintf "%.3g" v

let proxy_count_table ?(kappa = 0.5) ?(nps = [ 1; 2; 3; 4; 5; 6 ]) ?points () =
  let headers = "alpha" :: List.map (fun np -> Printf.sprintf "np=%d" np) nps in
  let table = Table.create ~headers in
  List.iter
    (fun alpha ->
      Table.add_row table
        (sci alpha :: List.map (fun np -> sci (Systems.s2_po ~np ~alpha ~kappa ())) nps))
    (Sweep.alpha_grid ?points ());
  table

let entropy_table ?(chis = [ 1 lsl 10; 1 lsl 12; 1 lsl 14 ]) ?(omega = 16) ?(trials = 200)
    ?jobs () =
  let table =
    Table.create ~headers:[ "chi"; "alpha=omega/chi"; "S1SO EL"; "S0SO EL"; "S1SO/S0SO" ]
  in
  List.iter
    (fun chi ->
      let cfg = { Probe_level.default with chi; omega; max_steps = 100 * chi / omega } in
      let s1 = Probe_level.estimate ?jobs ~trials Systems.S1_SO cfg in
      let s0 = Probe_level.estimate ?jobs ~trials Systems.S0_SO cfg in
      Table.add_row table
        [
          string_of_int chi;
          sci (Probe_level.alpha_of cfg);
          sci s1.Trial.mean;
          sci s0.Trial.mean;
          sci (s1.Trial.mean /. s0.Trial.mean);
        ])
    chis;
  table

let launchpad_table ?(alpha = 0.005) ?(kappas = Sweep.paper_kappas) () =
  let disciplines =
    [ ("remaining", Systems.Remaining); ("full", Systems.Full); ("next-step", Systems.Next_step) ]
  in
  let table =
    Table.create
      ~headers:("kappa" :: List.map fst disciplines @ [ "S1PO (reference)" ])
  in
  List.iter
    (fun kappa ->
      Table.add_row table
        (sci kappa
         :: List.map (fun (_, lp) -> sci (Systems.s2_po ~launchpad:lp ~alpha ~kappa ())) disciplines
        @ [ sci (Systems.s1_po ~alpha) ]))
    kappas;
  (* crossover row: the kappa at which each discipline stops beating S1PO *)
  let crossover lp =
    let s1 = Systems.s1_po ~alpha in
    let gap kappa = Systems.s2_po ~launchpad:lp ~alpha ~kappa () -. s1 in
    if gap 1.0 >= 0.0 then 1.0
    else begin
      let lo = ref 0.0 and hi = ref 1.0 in
      for _ = 1 to 60 do
        let mid = (!lo +. !hi) /. 2.0 in
        if gap mid > 0.0 then lo := mid else hi := mid
      done;
      !lo
    end
  in
  Table.add_row table
    ("kappa*"
     :: List.map (fun (_, lp) -> Printf.sprintf "%.4f" (crossover lp)) disciplines
    @ [ "-" ]);
  table

let limited_diversity_table ?(alpha = 0.005) ?(candidate_counts = [ 1; 2; 4; 8; 16; 64 ])
    ?(trials = 2000) () =
  let module Limited = Fortress_mc.Limited in
  let so = Systems.s1_so ~alpha in
  let po = Systems.s1_po ~alpha in
  let table =
    Table.create ~headers:[ "candidates"; "EL (MC)"; "S1SO anchor"; "S1PO anchor"; "position" ]
  in
  List.iter
    (fun candidates ->
      let el =
        Limited.expected_lifetime ~trials { Limited.default with alpha; candidates }
      in
      let position = (el -. so) /. (po -. so) in
      Table.add_row table
        [
          string_of_int candidates;
          sci el;
          sci so;
          sci po;
          Printf.sprintf "%.2f" position;
        ])
    candidate_counts;
  table

let overhead_table ?requests () = Overhead.table (Overhead.compare_tiers ?requests ())

let budget_split_table ?(total = 256.0) ?(chi = 65536.0) ?(kappas = Sweep.paper_kappas) () =
  let table =
    Table.create
      ~headers:[ "kappa"; "optimal direct fraction"; "worst-case EL"; "paper-model EL (same omega)" ]
  in
  (* the comparable per-channel model gives each of the np+1 channels the
     full per-channel budget omega = total / (np + 1) *)
  let np = 3 in
  let omega = total /. float_of_int (np + 1) in
  let alpha = omega /. chi in
  List.iter
    (fun kappa ->
      let x_star, worst = Systems.s2_po_worst_case ~np ~total ~chi ~kappa () in
      Table.add_row table
        [
          sci kappa;
          Printf.sprintf "%.3f" x_star;
          sci worst;
          sci (Systems.s2_po ~np ~alpha ~kappa ());
        ])
    kappas;
  table

let detection_table ?(thresholds = [ 2; 5; 10; 50; 1000 ]) ?(steps = 15) () =
  let table =
    Table.create
      ~headers:
        [
          "threshold"; "indirect sent"; "indirect blocked"; "sources burned"; "effective kappa";
        ]
  in
  List.iter
    (fun threshold ->
      let deployment =
        Deployment.create
          {
            Deployment.default_config with
            keyspace = Keyspace.of_size (1 lsl 14);
            proxy = { Proxy.default_config with detection_threshold = threshold };
            seed = 7;
          }
      in
      ignore (Deployment.obfuscate deployment ~mode:Obfuscation.PO ~period:100.0);
      let campaign =
        Campaign.launch deployment
          (Campaign.make_config ~omega:32 ~kappa:1.0 ~period:100.0 ~seed:11 ())
      in
      ignore (Campaign.run_until_compromise campaign ~max_steps:steps);
      let stats = Campaign.stats campaign in
      Table.add_row table
        [
          string_of_int threshold;
          string_of_int stats.Fortress_attack.Campaign_intf.Stats.indirect_probes_sent;
          string_of_int stats.Fortress_attack.Campaign_intf.Stats.indirect_probes_blocked;
          string_of_int stats.Fortress_attack.Campaign_intf.Stats.sources_burned;
          Printf.sprintf "%.3f" (Campaign.effective_kappa campaign);
        ])
    thresholds;
  table
