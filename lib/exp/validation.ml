module Systems = Fortress_model.Systems
module Step_level = Fortress_mc.Step_level
module Probe_level = Fortress_mc.Probe_level
module Trial = Fortress_mc.Trial
module Table = Fortress_util.Table
module Sink = Fortress_obs.Sink

type line = {
  system : Systems.system;
  alpha : float;
  analytic : float;
  step_mc : Trial.result;
  probe_mc : Trial.result;
}

let run ?sink ?jobs ?(chi = 4096) ?(omega = 16) ?(kappa = 0.5) ?(trials = 400) ?systems () =
  let systems =
    match systems with Some s -> s | None -> Systems.all_systems
  in
  let probe_cfg = { Probe_level.default with chi; omega; kappa } in
  let alpha = Probe_level.alpha_of probe_cfg in
  let step_cfg = { Step_level.default with alpha; kappa } in
  List.map
    (fun system ->
      {
        system;
        alpha;
        analytic = Systems.expected_lifetime system ~alpha ~kappa;
        step_mc = Step_level.estimate ?sink ?jobs ~trials system step_cfg;
        probe_mc = Probe_level.estimate ?sink ?jobs ~trials system probe_cfg;
      })
    systems

let table lines =
  let t =
    Table.create
      ~headers:
        [ "system"; "alpha"; "analytic"; "step-MC"; "step ci95"; "probe-MC"; "probe ci95" ]
  in
  List.iter
    (fun l ->
      let ci r =
        let lo, hi = r.Trial.ci95 in
        Printf.sprintf "[%.3g, %.3g]" lo hi
      in
      Table.add_row t
        [
          Systems.system_to_string l.system;
          Printf.sprintf "%.3g" l.alpha;
          Printf.sprintf "%.4g" l.analytic;
          Printf.sprintf "%.4g" l.step_mc.Trial.mean;
          ci l.step_mc;
          Printf.sprintf "%.4g" l.probe_mc.Trial.mean;
          ci l.probe_mc;
        ])
    lines;
  t

type protocol_line = {
  pl_alpha : float;
  pl_kappa : float;
  campaign : Trial.result;
  pl_probe : Trial.result;
  pl_analytic : float;
}

let campaign_lifetime ?sink ~chi ~omega ~kappa ~seed () =
  let module Deployment = Fortress_core.Deployment in
  let module Obfuscation = Fortress_core.Obfuscation in
  let module Campaign = Fortress_attack.Campaign in
  let module Proxy = Fortress_core.Proxy in
  let period = 100.0 in
  let deployment =
    Deployment.create
      {
        Deployment.default_config with
        keyspace = Fortress_defense.Keyspace.of_size chi;
        seed;
        (* detection off: the model's kappa is the attacker's rate, and we
           want to validate the rate -> lifetime law, not the detector *)
        proxy = { Proxy.default_config with detection_threshold = max_int - 1 };
      }
  in
  (* splice the deployment's own event stream into the caller's sink, so
     one JSONL trace covers every trial of a validation run *)
  (match sink with
  | None -> ()
  | Some downstream ->
      ignore
        (Sink.attach
           (Fortress_sim.Engine.sink (Deployment.engine deployment))
           (Sink.forward downstream)));
  ignore (Deployment.obfuscate deployment ~mode:Obfuscation.PO ~period);
  let campaign =
    Campaign.launch deployment
      (Campaign.make_config ~omega ~kappa ~period ~seed:(seed + 7919) ())
  in
  Campaign.run_until_compromise campaign ~max_steps:10_000

let protocol ?sink ?jobs ?(trials = 60) ?(chi = 256) ?(omega = 8) ?(kappa = 0.5) ?(seed = 1)
    () =
  let alpha = float_of_int omega /. float_of_int chi in
  let campaign =
    (* index-structural per-trial seeds (seed * 1000 + index, matching the
       original sequential counter); each trial's engine events go into a
       private buffer that the join replays into the shared sink in trial
       order, so the JSONL trace is byte-identical at every job count *)
    let replays = Array.make trials None in
    Trial.run_indexed ?sink ?jobs ~trials ~seed
      ~on_join:(fun ~index ->
        match (sink, replays.(index - 1)) with
        | Some downstream, Some replay -> replay downstream
        | _ -> ())
      ~sampler:(fun ~index _prng ->
        let trial_seed = (seed * 1000) + index in
        match sink with
        | None -> campaign_lifetime ~chi ~omega ~kappa ~seed:trial_seed ()
        | Some _ ->
            let local = Sink.create () in
            let sub, replay = Sink.buffered () in
            ignore (Sink.attach local sub);
            replays.(index - 1) <- Some replay;
            campaign_lifetime ~sink:local ~chi ~omega ~kappa ~seed:trial_seed ())
      ()
  in
  let probe_cfg = { Probe_level.default with chi; omega; kappa; max_steps = 10_000 } in
  let pl_probe =
    Probe_level.estimate ?jobs ~trials:(4 * trials) ~seed Systems.S2_PO probe_cfg
  in
  { pl_alpha = alpha; pl_kappa = kappa; campaign; pl_probe;
    pl_analytic = Systems.s2_po ~alpha ~kappa () }

let protocol_table line =
  let t =
    Table.create ~headers:[ "tier"; "expected lifetime"; "ci95"; "n" ]
  in
  let ci r =
    let lo, hi = r.Trial.ci95 in
    Printf.sprintf "[%.1f, %.1f]" lo hi
  in
  Table.add_row t
    [ "packet-level campaign"; Printf.sprintf "%.1f" line.campaign.Trial.mean;
      ci line.campaign; string_of_int line.campaign.Trial.trials ];
  Table.add_row t
    [ "probe-level sampler"; Printf.sprintf "%.1f" line.pl_probe.Trial.mean;
      ci line.pl_probe; string_of_int line.pl_probe.Trial.trials ];
  Table.add_row t [ "analytic S2PO law"; Printf.sprintf "%.1f" line.pl_analytic; "-"; "-" ];
  t

let protocol_agrees line =
  let lo, hi = line.campaign.Trial.ci95 in
  let margin = 0.25 *. line.pl_analytic in
  let plo, phi = line.pl_probe.Trial.ci95 in
  line.pl_analytic > lo -. margin
  && line.pl_analytic < hi +. margin
  && plo < hi +. margin
  && lo -. margin < phi

let max_relative_error lines =
  List.fold_left
    (fun acc l ->
      if Float.is_nan l.step_mc.Trial.mean || l.analytic = 0.0 then acc
      else Float.max acc (Float.abs (l.step_mc.Trial.mean -. l.analytic) /. l.analytic))
    0.0 lines
