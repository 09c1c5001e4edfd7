(* fortress-cli: regenerate the paper's evaluation artefacts and explore
   the models from the command line. *)

open Cmdliner
module Systems = Fortress_model.Systems
module Step_level = Fortress_mc.Step_level
module Trial = Fortress_mc.Trial
module Table = Fortress_util.Table
module Figures = Fortress_exp.Figures
module Ablations = Fortress_exp.Ablations
module Validation = Fortress_exp.Validation

(* ---- shared arguments ---- *)

let alpha_arg =
  let doc = "Per-step direct-attack success probability (paper range 1e-5..1e-2)." in
  Arg.(value & opt float 1e-3 & info [ "alpha" ] ~docv:"ALPHA" ~doc)

let kappa_arg =
  let doc = "Indirect attack coefficient in [0,1]." in
  Arg.(value & opt float 0.5 & info [ "kappa" ] ~docv:"KAPPA" ~doc)

let np_arg =
  let doc = "Number of proxies in the FORTRESS tier." in
  Arg.(value & opt int 3 & info [ "np" ] ~docv:"NP" ~doc)

let points_arg =
  let doc = "Points on the alpha sweep." in
  Arg.(value & opt int 13 & info [ "points" ] ~docv:"N" ~doc)

let trials_arg ~default =
  let doc = "Monte-Carlo trials (0 disables MC columns)." in
  Arg.(value & opt int default & info [ "trials" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Emit CSV instead of an aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let jobs_arg =
  let doc =
    "Lanes for the Monte-Carlo trials: the calling domain plus up to N-1 \
     workers from a persistent process-wide domain pool, clamped to what the \
     machine can run. Results are bit-identical at every job count: trials \
     are partitioned by index, each trial's PRNG is derived from its index \
     (never from execution order), and outcomes are consumed in index order \
     at the join."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let launchpad_arg =
  let lp_conv =
    Arg.enum
      [ ("remaining", Systems.Remaining); ("full", Systems.Full); ("next-step", Systems.Next_step) ]
  in
  let doc = "Launch-pad discipline: remaining | full | next-step." in
  Arg.(value & opt lp_conv Systems.Remaining & info [ "launchpad" ] ~docv:"MODE" ~doc)

let system_arg =
  let sys_conv =
    Arg.enum (List.map (fun s -> (Systems.system_to_string s, s)) Systems.all_systems)
  in
  let doc = "System class: s0so | s1so | s0po | s1po | s2po | s2so." in
  Arg.(value & opt sys_conv Systems.S2_PO & info [ "system" ] ~docv:"SYSTEM" ~doc)

let print_table ~csv table =
  print_string (if csv then Table.to_csv table else Table.render table)

(* ---- observability plumbing ---- *)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the structured event stream as JSON Lines to $(docv). Inspect it with the $(b,obs) subcommand.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ] ~doc:"Print the metrics registry when the run finishes.")

(* the (subscriber, flush-and-close) pair of [Sink.file] *)
let open_trace path =
  try Fortress_obs.Sink.file path
  with Sys_error msg ->
    Printf.eprintf "fortress-cli: cannot open trace file: %s\n" msg;
    exit 1

(* Run [f] against a sink wired to the requested consumers; the trace file
   is flushed and closed (and metrics printed) even when [f] raises. *)
let with_obs ~trace_out ~metrics f =
  let module Obs = Fortress_obs in
  let sink = Obs.Sink.create () in
  let registry = Obs.Metrics.create () in
  if metrics then ignore (Obs.Sink.attach sink (Obs.Sink.counting registry));
  let close_trace =
    match trace_out with
    | None -> Fun.id
    | Some path ->
        let sub, close = open_trace path in
        ignore (Obs.Sink.attach sink sub);
        close
  in
  Fun.protect
    ~finally:(fun () ->
      close_trace ();
      if metrics then print_string (Obs.Metrics.render registry))
    (fun () -> f sink)

(* ---- el ---- *)

let el_cmd =
  let run system alpha kappa np launchpad trials jobs =
    let analytic = Systems.expected_lifetime ~launchpad ~np system ~alpha ~kappa in
    Printf.printf "%s: analytic EL = %.6g unit time-steps (alpha=%g kappa=%g np=%d)\n"
      (Systems.system_to_string system)
      analytic alpha kappa np;
    if trials > 0 then begin
      let cfg = { Step_level.default with alpha; kappa; np; launchpad } in
      let res = Step_level.estimate ~jobs ~trials system cfg in
      Format.printf "%s: monte-carlo %a@." (Systems.system_to_string system) Trial.pp_result res
    end
  in
  let term = Term.(const run $ system_arg $ alpha_arg $ kappa_arg $ np_arg $ launchpad_arg
                   $ trials_arg ~default:0 $ jobs_arg) in
  Cmd.v (Cmd.info "el" ~doc:"Expected lifetime of one system at one operating point.") term

(* ---- figures ---- *)

let plot_arg =
  let doc = "Render an ASCII log-log plot instead of a table." in
  Arg.(value & flag & info [ "plot" ] ~doc)

let figure1_cmd =
  let run points kappa trials csv plot =
    if plot then print_string (Figures.figure1_plot ~kappa ())
    else print_table ~csv (Figures.figure1_table ~points ~kappa ~mc_trials:trials ())
  in
  let term =
    Term.(const run $ points_arg $ kappa_arg $ trials_arg ~default:0 $ csv_arg $ plot_arg)
  in
  Cmd.v
    (Cmd.info "figure1"
       ~doc:"Regenerate Figure 1: expected lifetime comparison across all five systems.")
    term

let figure2_cmd =
  let run points csv plot =
    if plot then print_string (Figures.figure2_plot ())
    else print_table ~csv (Figures.figure2_table ~points ())
  in
  let term = Term.(const run $ points_arg $ csv_arg $ plot_arg) in
  Cmd.v
    (Cmd.info "figure2" ~doc:"Regenerate Figure 2: S2PO expected lifetime as kappa varies.")
    term

let ordering_cmd =
  let run points csv =
    print_table ~csv (Figures.ordering_table ~points ());
    let r = Figures.ordering ~points () in
    let yes b = if b then "holds" else "FAILS" in
    Printf.printf "\nsummary chain (paper section 6):\n";
    Printf.printf "  S0PO -> S2PO for kappa > 0:    %s\n" (yes r.Figures.s0po_beats_s2po);
    Printf.printf "  S2PO -> S1PO at kappa = 0.5:   %s\n"
      (yes r.Figures.s2po_beats_s1po_at_low_kappa);
    Printf.printf "  S1PO -> S1SO:                  %s\n" (yes r.Figures.s1po_beats_s1so);
    Printf.printf "  S1SO -> S0SO:                  %s\n" (yes r.Figures.s1so_beats_s0so)
  in
  let term = Term.(const run $ points_arg $ csv_arg) in
  Cmd.v (Cmd.info "ordering" ~doc:"Check the paper's summary ordering across the alpha range.") term

(* ---- validate ---- *)

let validate_cmd =
  let chi_arg =
    Arg.(value & opt (some int) None
         & info [ "chi" ] ~docv:"CHI"
             ~doc:"Key-space size (default 4096; 256 with $(b,--protocol)).")
  in
  let omega_arg =
    Arg.(value & opt (some int) None
         & info [ "omega" ] ~docv:"OMEGA"
             ~doc:"Probes per channel per step (default 16; 8 with $(b,--protocol)).")
  in
  let protocol_arg =
    Arg.(value & flag
         & info [ "protocol" ]
             ~doc:"Validate the full packet-level protocol stack instead of the samplers.")
  in
  let run chi omega kappa trials jobs csv protocol trace_out metrics =
    let chi = Option.value chi ~default:(if protocol then 256 else 4096) in
    let omega = Option.value omega ~default:(if protocol then 8 else 16) in
    with_obs ~trace_out ~metrics (fun sink ->
        if protocol then begin
          let line =
            Validation.protocol ~sink ~jobs ~trials:(min trials 100) ~chi ~omega ~kappa ()
          in
          print_table ~csv (Validation.protocol_table line);
          Printf.printf "\noperating point: chi=%d omega=%d kappa=%g\n" chi omega kappa;
          Printf.printf "stack agreement: %s\n"
            (if Validation.protocol_agrees line then "holds" else "FAILS")
        end
        else begin
          let lines = Validation.run ~sink ~jobs ~chi ~omega ~kappa ~trials () in
          print_table ~csv (Validation.table lines);
          Printf.printf "\nmax |step-MC - analytic| / analytic = %.3f\n"
            (Validation.max_relative_error lines)
        end)
  in
  let term =
    Term.(const run $ chi_arg $ omega_arg $ kappa_arg $ trials_arg ~default:400 $ jobs_arg
          $ csv_arg $ protocol_arg $ trace_out_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Cross-validate analytic, step-level and probe-level estimates of every system.")
    term

(* ---- ablations ---- *)

let ablation_cmd =
  let which_arg =
    let doc = "Which ablation: np | chi | launchpad | kappa | diversity | overhead | budget." in
    Arg.(required & pos 0 (some (Arg.enum
      [ ("np", `Np); ("chi", `Chi); ("launchpad", `Launchpad); ("kappa", `Kappa);
        ("diversity", `Diversity); ("overhead", `Overhead); ("budget", `Budget) ])) None
      & info [] ~docv:"WHICH" ~doc)
  in
  let run which csv =
    let table =
      match which with
      | `Np -> Ablations.proxy_count_table ()
      | `Chi -> Ablations.entropy_table ()
      | `Launchpad -> Ablations.launchpad_table ()
      | `Kappa -> Ablations.detection_table ()
      | `Diversity -> Ablations.limited_diversity_table ()
      | `Overhead -> Ablations.overhead_table ()
      | `Budget -> Ablations.budget_split_table ()
    in
    print_table ~csv table
  in
  let term = Term.(const run $ which_arg $ csv_arg) in
  Cmd.v (Cmd.info "ablation" ~doc:"Run one of the design-choice ablations and extensions (A1-A7; A8 is load --degradation).") term

(* ---- podc ---- *)

let podc_cmd =
  let run points csv =
    print_table ~csv (Figures.podc_claim_table ~points ());
    Printf.printf "\nclaim from Ezhilchelvan et al. (OPODIS 2009): %s\n"
      (if Figures.podc_claim_holds ~points () then
         "holds — a fortified PB system (kappa = 0, recovery only) is at least as resilient as 4-replica SMR with proactive recovery"
       else "FAILS")
  in
  let term = Term.(const run $ points_arg $ csv_arg) in
  Cmd.v
    (Cmd.info "podc"
       ~doc:"Re-check the OPODIS 2009 claim the paper builds on (section 1).")
    term

(* ---- shapes ---- *)

let shapes_cmd =
  let run alpha kappa trials =
    let module Distributions = Fortress_exp.Distributions in
    let profiles =
      List.map
        (fun system -> Distributions.profile ~trials system ~alpha ~kappa)
        [ Systems.S1_PO; Systems.S2_PO; Systems.S1_SO; Systems.S0_SO ]
    in
    print_string (Fortress_util.Table.render (Distributions.table profiles))
  in
  let term = Term.(const run $ alpha_arg $ kappa_arg $ trials_arg ~default:4000) in
  Cmd.v
    (Cmd.info "shapes"
       ~doc:"Lifetime distribution shapes: memoryless PO vs exhaustion-bounded SO.")
    term

(* ---- simulate ---- *)

let simulate_cmd =
  let module Deployment = Fortress_core.Deployment in
  let module Obfuscation = Fortress_core.Obfuscation in
  let module Client = Fortress_core.Client in
  let module Proxy = Fortress_core.Proxy in
  let module Campaign = Fortress_attack.Campaign in
  let module Keyspace = Fortress_defense.Keyspace in
  let module Engine = Fortress_sim.Engine in
  let module Sink = Fortress_obs.Sink in
  let service_arg =
    let all = List.map fst Fortress_replication.Services.all in
    let doc = Printf.sprintf "Service to replicate: %s." (String.concat " | " all) in
    Arg.(value & opt string "kv" & info [ "service" ] ~docv:"NAME" ~doc)
  in
  let np_sim = Arg.(value & opt int 3 & info [ "proxies" ] ~docv:"NP" ~doc:"Proxies (0 = bare S1).") in
  let ns_sim = Arg.(value & opt int 3 & info [ "servers" ] ~docv:"NS" ~doc:"Primary-backup servers.") in
  let steps_arg =
    Arg.(value & opt int 20 & info [ "steps" ] ~docv:"N" ~doc:"Unit time-steps to simulate.")
  in
  let mode_arg =
    Arg.(value & opt (Arg.enum [ ("po", Obfuscation.PO); ("so", Obfuscation.SO) ]) Obfuscation.PO
         & info [ "mode" ] ~docv:"MODE" ~doc:"Obfuscation schedule: po | so.")
  in
  let omega_sim =
    Arg.(value & opt int 0 & info [ "attack-omega" ] ~docv:"N"
           ~doc:"Attack intensity (0 disables the campaign).")
  in
  let chi_sim =
    Arg.(value & opt int 65536 & info [ "chi" ] ~docv:"N" ~doc:"Randomization key-space size.")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let rate_arg =
    Arg.(value & opt int 4 & info [ "requests-per-step" ] ~docv:"N" ~doc:"Client workload rate.")
  in
  let trace_arg =
    Arg.(value & opt int 10
         & info [ "trace" ] ~docv:"N"
             ~doc:"Print the last $(docv) state-change (Info-level) events at the end; 0 prints none.")
  in
  let jobs_sim =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Accepted for interface uniformity with the Monte-Carlo \
                   subcommands; a single deployment simulation is one event \
                   loop on one domain, so the output is identical for every \
                   value.")
  in
  let run service np ns steps mode omega chi seed rate kappa trace_lines jobs trace_out
      metrics =
    ignore (jobs : int);
    match Fortress_replication.Services.find service with
    | None ->
        prerr_endline ("unknown service: " ^ service);
        exit 1
    | Some svc ->
        let period = 100.0 in
        let deployment =
          Deployment.create
            { Deployment.default_config with np; ns; service = svc; service_name = service;
              keyspace = Keyspace.of_size chi; seed }
        in
        let engine = Deployment.engine deployment in
        let sink = Engine.sink engine in
        let registry = Fortress_obs.Metrics.create () in
        if metrics then ignore (Sink.attach sink (Sink.counting registry));
        let print_tail =
          if trace_lines <= 0 then Fun.id
          else begin
            let sub, render = Sink.tail ~lines:trace_lines in
            ignore (Sink.attach sink sub);
            fun () ->
              print_endline "trace tail:";
              print_string (render ())
          end
        in
        let close_trace =
          match trace_out with
          | None -> Fun.id
          | Some path ->
              let sub, close = open_trace path in
              ignore (Sink.attach sink sub);
              close
        in
        ignore (Deployment.obfuscate deployment ~mode ~period);
        let client = Deployment.new_client deployment ~name:"workload" in
        let served = ref 0 and sent = ref 0 in
        ignore
          (Engine.every engine ~period:(period /. float_of_int (max rate 1))
             ~until:(period *. float_of_int steps) (fun () ->
               incr sent;
               ignore
                 (Client.submit client
                    ~cmd:(Printf.sprintf "put k%d v%d" !sent !sent)
                    ~on_response:(fun _ -> incr served))));
        let compromised_at =
          if omega > 0 then begin
            let campaign =
              Campaign.launch deployment
                (Campaign.make_config ~omega ~kappa ~period ~seed:(seed + 1) ())
            in
            Campaign.run_until_compromise campaign ~max_steps:steps
          end
          else begin
            Engine.run ~until:(period *. float_of_int steps) engine;
            None
          end
        in
        Printf.printf "simulated %d unit time-steps (service=%s np=%d ns=%d mode=%s chi=%d)\n"
          steps service np ns (Obfuscation.mode_to_string mode) chi;
        (match compromised_at with
        | Some step -> Printf.printf "system COMPROMISED during step %d\n" step
        | None -> Printf.printf "system survived the horizon\n");
        Printf.printf "workload: %d submitted, %d served\n" !sent !served;
        Array.iter
          (fun proxy ->
            Printf.printf "proxy %d: %d forwarded, %d invalid logged, %d sources blocked\n"
              (Proxy.index proxy) (Proxy.forwarded proxy) (Proxy.invalid_observed proxy)
              (List.length (Proxy.blocked_sources proxy)))
          (Deployment.proxies deployment);
        print_tail ();
        close_trace ();
        if metrics then print_string (Fortress_obs.Metrics.render registry)
  in
  let term =
    Term.(const run $ service_arg $ np_sim $ ns_sim $ steps_arg $ mode_arg $ omega_sim
          $ chi_sim $ seed_arg $ rate_arg $ kappa_arg $ trace_arg $ jobs_sim $ trace_out_arg
          $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Drive a configurable FORTRESS deployment end to end and summarise what happened.")
    term

(* ---- inject ---- *)

let inject_cmd =
  let module Plan = Fortress_faults.Plan in
  let module Inject = Fortress_exp.Inject in
  let plan_arg =
    let doc =
      "Fault plan: none | lossy | partition | crashy | chaos | all (the whole escalation ladder)."
    in
    Arg.(value & opt string "chaos" & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let chi_arg =
    Arg.(value & opt int 256 & info [ "chi" ] ~docv:"CHI" ~doc:"Key-space size.")
  in
  let omega_arg =
    Arg.(value & opt int 8 & info [ "omega" ] ~docv:"OMEGA" ~doc:"Probes per channel per step.")
  in
  let steps_arg =
    Arg.(value & opt int 400 & info [ "max-steps" ] ~docv:"N"
           ~doc:"Campaign horizon in unit time-steps.")
  in
  let strategy_arg =
    let doc =
      "Adaptive attack strategy: oblivious | stale-key-rush | partition-follower | \
       probe-pacer (rate-limits probes below the proxies' suspicion window after a source \
       burns). Omit for the fixed-schedule attacker; oblivious is bit-identical to it and \
       reports dEL 0."
    in
    Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"NAME" ~doc)
  in
  let defender_arg =
    let doc =
      "Adaptive defender: static | alarm-rekey | threshold-tightener | mdp (the \
       value-iteration lookup-table policy). Omit for the fixed defense schedule; static \
       observes through the same telemetry plane but never acts and is bit-identical to it."
    in
    Arg.(value & opt (some string) None & info [ "defender" ] ~docv:"NAME" ~doc)
  in
  let game_arg =
    Arg.(value & flag
         & info [ "game" ]
             ~doc:"Run the 2x2 {oblivious, stale-key-rush} x {static, alarm-rekey} \
                   attacker/defender cross over the selected plans on paired seeds, with \
                   the MDP model-level lifetimes as the benchmark bound. Ignores \
                   --strategy/--defender/--smr/--timeline.")
  in
  let smr_arg =
    Arg.(value & flag
         & info [ "smr" ]
             ~doc:"Run the plan on the 1-tier SMR stack (S0) instead of FORTRESS (S2).")
  in
  let load_arg =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"SPEC"
             ~doc:"Attach the production-scale workload plane to every trial: \
                   $(b,poisson:rate=R) | $(b,uniform:period=P) | \
                   $(b,bursty:rate=R,burst=RB[,on=25][,off=100]) (open-loop aggregated \
                   clients) | $(b,closed:clients=N[,think=50]) (closed-loop virtual \
                   sessions); every kind also takes $(b,,batch=B) and $(b,,timeout=T). \
                   Adds a service-quality table (availability + p50/p99/p999 latency) per \
                   plan; on the SMR stack this is the only workload, so availability \
                   becomes a measured quantity instead of n/a. Off by default; attaching \
                   load never changes attacker or defense randomness.")
  in
  let timeline_arg =
    Arg.(value & opt (some float) None
         & info [ "timeline" ] ~docv:"WIDTH"
             ~doc:"Pool every trial's event stream into a windowed timeline ($(docv) virtual-time units per window, e.g. 100 = one attack step), score the defender signals over it and print the fault-aligned signal table. Off by default; attaching it does not change any other output.")
  in
  let causal_trace_arg =
    Arg.(value & opt (some string) None
         & info [ "causal-trace" ] ~docv:"FILE"
             ~doc:"Turn on causal message tracing (client request \u{2192} net.send \u{2192} net.deliver \u{2192} defense actuation span trees, per-trial trace ids derived from the trial index) and write the merged Perfetto/Chrome trace \u{2014} spans, fault instants, signal.alarm events and send\u{2192}deliver flow arrows \u{2014} to $(docv). Also reports per-plan detection/reaction latency tables. Off by default; with it on the artifact and all tables are bit-identical at every $(b,--jobs) count.")
  in
  let causal_profile_arg =
    Arg.(value & flag
         & info [ "causal-profile" ]
             ~doc:"Add wall-clock profiler sample lanes to the $(b,--causal-trace) artifact. Wall-clock timings are nondeterministic, so leave this off when byte-comparing artifacts across job counts.")
  in
  let run plan trials seed chi omega kappa steps jobs strategy defender game smr load
      timeline causal_trace causal_profile csv trace_out metrics =
    (match timeline with
    | Some w when not (w > 0.0) ->
        Printf.eprintf "fortress-cli: --timeline width must be positive (got %g)\n" w;
        exit 2
    | _ -> ());
    let plans =
      match plan with
      | "all" -> List.filter (fun (p : Plan.t) -> p.Plan.name <> "none") Plan.builtins
      | name -> (
          match Plan.find name with
          | Some p -> [ p ]
          | None ->
              Printf.eprintf "fortress-cli: unknown fault plan %S (try none | lossy | partition | crashy | chaos | all)\n" name;
              exit 2)
    in
    let strategy =
      match strategy with
      | None -> None
      | Some name -> (
          match Fortress_attack.Adaptive.Strategy.find name with
          | Some s -> Some s
          | None ->
              Printf.eprintf "fortress-cli: unknown strategy %S (try %s)\n" name
                (String.concat " | " Fortress_attack.Adaptive.Strategy.names);
              exit 2)
    in
    let defender =
      match defender with
      | None -> None
      | Some name -> (
          match Inject.find_defender name with
          | Some d -> Some d
          | None ->
              Printf.eprintf "fortress-cli: unknown defender %S (try %s)\n" name
                (String.concat " | " Inject.defender_names);
              exit 2)
    in
    let load =
      match load with
      | None -> None
      | Some s -> (
          match Fortress_load.Workload.spec_of_string s with
          | Ok spec -> Some spec
          | Error e ->
              Printf.eprintf "fortress-cli: bad --load spec %S: %s\n" s e;
              exit 2)
    in
    if game then begin
      let config = { Inject.default_config with trials; seed; chi; omega; kappa;
                     max_steps = steps; jobs } in
      let g = Inject.run_game ~config ~plans () in
      Printf.printf "2x2 attacker/defender game (plan %s):\n" plan;
      print_table ~csv (Inject.game_table g);
      Printf.printf
        "\nMDP benchmark (model-level expected lifetime): optimal %.1f, static %.1f\n"
        g.Inject.mdp_optimal g.Inject.mdp_static;
      Printf.printf "operating point: chi=%d omega=%d kappa=%g trials=%d seed=%d\n" chi
        omega kappa trials seed;
      exit 0
    end;
    with_obs ~trace_out ~metrics (fun sink ->
        let causal = causal_trace <> None in
        (* the causal artifact captures the pooled stream in memory; the
           profiler lanes (wall clock, nondeterministic) only join when
           explicitly requested *)
        let capture =
          match causal_trace with
          | None -> None
          | Some path ->
              if causal_profile then begin
                Fortress_prof.Profiler.set_sample_capacity 65536;
                Fortress_prof.Profiler.reset ();
                Fortress_prof.Profiler.enable ()
              end;
              let sub, read = Fortress_obs.Sink.memory ~capacity:(1 lsl 20) () in
              ignore (Fortress_obs.Sink.attach sink sub);
              Some (path, read)
        in
        let config = { Inject.default_config with trials; seed; chi; omega; kappa;
                       max_steps = steps; jobs; load; telemetry = timeline; causal } in
        let stack = if smr then `Smr else `Fortress in
        let report = Inject.run ~sink ?strategy ?defender ~stack ~config ~plans () in
        print_table ~csv (Inject.table report);
        print_newline ();
        print_table ~csv (Inject.fault_breakdown report);
        (match Inject.load_table report with
        | None -> ()
        | Some tbl ->
            Printf.printf "\nservice quality under load (%s):\n"
              (match load with
              | Some spec -> Fortress_load.Workload.spec_to_string spec
              | None -> "");
            print_table ~csv tbl);
        (match report.Inject.adapt with
        | None -> ()
        | Some adapt ->
            Printf.printf "\nadaptive vs oblivious (strategy %s):\n" adapt.Inject.strategy_name;
            print_table ~csv (Inject.adapt_table adapt));
        (match report.Inject.defend with
        | None -> ()
        | Some defend ->
            Printf.printf "\ndefended vs static (defender %s):\n" defend.Inject.defender_name;
            print_table ~csv (Inject.defend_table defend));
        List.iter
          (fun (r : Inject.run) ->
            match Inject.timeline_table r with
            | None -> ()
            | Some tbl ->
                Printf.printf "\nsignal timeline (%s), %g vt per window:\n" r.Inject.plan_name
                  (Option.value ~default:0.0 timeline);
                print_table ~csv tbl;
                (match r.Inject.telemetry with
                | Some (_, signals) when Fortress_obs.Signal.alarms signals <> [] ->
                    Printf.printf "detector alarms (%s):\n" r.Inject.plan_name;
                    Option.iter (print_table ~csv) (Inject.timeline_alarm_table r)
                | _ -> ()))
          (report.Inject.baseline :: report.Inject.runs);
        List.iter
          (fun (r : Inject.run) ->
            match Inject.latency_table r with
            | None -> ()
            | Some tbl ->
                Printf.printf "\ndetection/reaction latency (%s), virtual time:\n"
                  r.Inject.plan_name;
                print_table ~csv tbl)
          (report.Inject.baseline :: report.Inject.runs);
        Printf.printf "\noperating point: chi=%d omega=%d kappa=%g trials=%d seed=%d%s%s%s\n"
          chi omega kappa trials seed
          (match strategy with
          | None -> ""
          | Some s -> " strategy=" ^ s.Fortress_attack.Adaptive.Strategy.name)
          (match defender with
          | None -> ""
          | Some d -> " defender=" ^ d.Fortress_defense.Controller.Strategy.name)
          (if smr then " stack=smr" else "");
        (* stable one-line-per-plan digests, for reproducibility diffing *)
        List.iter
          (fun (r : Inject.run) -> Printf.printf "digest %s %s\n" r.Inject.plan_name r.Inject.digest)
          (report.Inject.baseline :: report.Inject.runs);
        if List.length plans > 1 then
          Printf.printf "escalation ordering (EL non-increasing): %s\n"
            (if Inject.monotone_non_increasing report then "holds" else "FAILS");
        match capture with
        | None -> ()
        | Some (path, read) ->
            let samples =
              if causal_profile then begin
                Fortress_prof.Profiler.disable ();
                Fortress_prof.Profiler.samples ()
              end
              else []
            in
            Fortress_prof.Trace_export.(write ~path (make ~samples (read ())));
            Printf.printf "causal trace written to %s (open at https://ui.perfetto.dev)\n"
              path)
  in
  let term =
    Term.(const run $ plan_arg $ trials_arg ~default:Fortress_exp.Inject.default_config.Fortress_exp.Inject.trials
          $ seed_arg $ chi_arg $ omega_arg $ kappa_arg $ steps_arg $ jobs_arg $ strategy_arg
          $ defender_arg $ game_arg $ smr_arg $ load_arg $ timeline_arg $ causal_trace_arg
          $ causal_profile_arg $ csv_arg $ trace_out_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Run protocol-level attack campaigns under a named fault plan and report expected-lifetime and availability deltas against the fault-free baseline.")
    term

(* ---- load ---- *)

let load_cmd =
  let module Plan = Fortress_faults.Plan in
  let module Inject = Fortress_exp.Inject in
  let module Load_compare = Fortress_exp.Load_compare in
  let module Workload = Fortress_load.Workload in
  let spec_arg =
    Arg.(value & opt string "closed:clients=32,think=50"
         & info [ "spec" ] ~docv:"SPEC"
             ~doc:"Workload to drive both stacks with: $(b,poisson:rate=R) | \
                   $(b,uniform:period=P) | $(b,bursty:rate=R,burst=RB[,on=25][,off=100]) | \
                   $(b,closed:clients=N[,think=50]); every kind also takes $(b,,batch=B) \
                   and $(b,,timeout=T).")
  in
  let plan_arg =
    Arg.(value & opt string "lossy,crashy"
         & info [ "plan" ] ~docv:"PLANS"
             ~doc:"Comma-separated fault plans for the PODC comparison (none is always the \
                   baseline); $(b,all) selects the whole escalation ladder.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let chi_arg =
    Arg.(value & opt int 256 & info [ "chi" ] ~docv:"CHI" ~doc:"Key-space size.")
  in
  let omega_arg =
    Arg.(value & opt int 8 & info [ "omega" ] ~docv:"OMEGA" ~doc:"Probes per channel per step.")
  in
  let steps_arg =
    Arg.(value & opt int 400 & info [ "max-steps" ] ~docv:"N"
           ~doc:"Campaign horizon in unit time-steps.")
  in
  let degradation_arg =
    Arg.(value & opt (some string) None
         & info [ "degradation" ] ~docv:"OMEGAS"
             ~doc:"Also sweep attack intensity (comma-separated probe budgets, e.g. \
                   $(b,0,4,16,64)) on both stacks with the fault plan held at none, and \
                   print the service-degradation surface.")
  in
  let run spec plan trials seed chi omega kappa steps jobs degradation csv =
    let spec =
      match Workload.spec_of_string spec with
      | Ok s -> s
      | Error e ->
          Printf.eprintf "fortress-cli: bad --spec %S: %s\n" spec e;
          exit 2
    in
    let plans =
      match plan with
      | "all" -> List.filter (fun (p : Plan.t) -> p.Plan.name <> "none") Plan.builtins
      | names ->
          List.map
            (fun name ->
              match Plan.find name with
              | Some p -> p
              | None ->
                  Printf.eprintf
                    "fortress-cli: unknown fault plan %S (try none | lossy | partition | \
                     crashy | chaos | all)\n"
                    name;
                  exit 2)
            (List.filter
               (fun n -> n <> "" && n <> "none")
               (String.split_on_char ',' names))
    in
    let config = { Inject.default_config with Inject.trials; seed; chi; omega; kappa;
                   max_steps = steps; jobs } in
    let p = Load_compare.podc ~config ~plans spec in
    Printf.printf "PODC comparison under matched fault plans (load %s):\n"
      (Workload.spec_to_string spec);
    print_table ~csv (Load_compare.podc_table p);
    (match degradation with
    | None -> ()
    | Some omegas ->
        let omegas =
          List.map
            (fun s ->
              match int_of_string_opt (String.trim s) with
              | Some i when i >= 0 -> i
              | _ ->
                  Printf.eprintf "fortress-cli: bad --degradation omega %S\n" s;
                  exit 2)
            (List.filter (fun s -> s <> "") (String.split_on_char ',' omegas))
        in
        let points = Load_compare.degradation ~config ~omegas spec in
        Printf.printf "\nservice degradation vs attack intensity (plan none):\n";
        print_table ~csv (Load_compare.degradation_table points));
    Printf.printf "\noperating point: chi=%d omega=%d kappa=%g trials=%d seed=%d\n"
      chi omega kappa trials seed
  in
  let term =
    Term.(const run $ spec_arg $ plan_arg
          $ trials_arg ~default:Fortress_exp.Inject.default_config.Fortress_exp.Inject.trials
          $ seed_arg $ chi_arg $ omega_arg $ kappa_arg $ steps_arg $ jobs_arg
          $ degradation_arg $ csv_arg)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive both stacks (FORTRESS and SMR) with a production-scale workload under \
             matched fault plans and attacker entropy, reporting expected lifetime, \
             availability and tail latency per stack \u{2014} the PODC comparison at the \
             service level. Bit-identical at any --jobs count.")
    term

(* ---- obs ---- *)

let obs_cmd =
  let module Summary = Fortress_obs.Summary in
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE" ~doc:"JSONL trace file written by $(b,--trace-out).")
  in
  let opt_int name doc = Arg.(value & opt (some int) None & info [ name ] ~docv:"N" ~doc) in
  let omega_obs = opt_int "omega" "Probes per channel per step the trace was recorded at." in
  let chi_obs = opt_int "chi" "Key-space size the trace was recorded at." in
  let run file omega chi kappa csv =
    let summary = Summary.of_file file in
    if csv then print_string (Table.to_csv (Summary.table summary))
    else print_string (Summary.render summary);
    match (omega, chi) with
    | Some omega, Some chi ->
        let checks = Summary.consistency ~omega ~chi ~kappa summary in
        print_newline ();
        print_table ~csv (Summary.check_table checks);
        if List.for_all (fun c -> c.Summary.ok) checks then
          print_endline "\ntrace consistent with the analytic per-step laws"
        else begin
          print_endline "\ntrace INCONSISTENT with the analytic per-step laws";
          exit 1
        end
    | Some _, None | None, Some _ ->
        prerr_endline "consistency check needs both --omega and --chi";
        exit 2
    | None, None -> ()
  in
  let term = Term.(const run $ file_arg $ omega_obs $ chi_obs $ kappa_arg $ csv_arg) in
  Cmd.v
    (Cmd.info "obs"
       ~doc:"Summarise a JSONL event trace; with --omega/--chi, cross-check measured per-step rates against the analytic laws.")
    term

(* ---- timeline ---- *)

let timeline_cmd =
  let module Obs = Fortress_obs in
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE" ~doc:"JSONL trace file written by $(b,--trace-out).")
  in
  let width_arg =
    Arg.(value & opt float 100.0
         & info [ "width" ] ~docv:"VT"
             ~doc:"Window width in virtual-time units (100 = one attack step).")
  in
  let capacity_arg =
    Arg.(value & opt int 512
         & info [ "capacity" ] ~docv:"N" ~doc:"Windows retained in the ring.")
  in
  let openmetrics_arg =
    Arg.(value & opt (some string) None
         & info [ "openmetrics" ] ~docv:"FILE"
             ~doc:"Write the OpenMetrics text exposition of the reconstructed metrics, the timeline and the final signal state to $(docv).")
  in
  let alarms_only_arg =
    Arg.(value & flag
         & info [ "alarms-only" ] ~doc:"Print only the detector-alarm table.")
  in
  let run file width capacity openmetrics alarms_only csv =
    if not (width > 0.0) then begin
      Printf.eprintf "fortress-cli: --width must be positive (got %g)\n" width;
      exit 2
    end;
    if capacity <= 0 then begin
      Printf.eprintf "fortress-cli: --capacity must be positive (got %d)\n" capacity;
      exit 2
    end;
    let registry = Obs.Metrics.create () in
    let timeline = Obs.Timeline.create ~capacity ~registry ~width () in
    let sink = Obs.Sink.create () in
    ignore (Obs.Sink.attach sink (Obs.Sink.counting registry));
    ignore (Obs.Sink.attach sink (Obs.Timeline.subscriber timeline));
    let malformed = ref 0 in
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            if String.trim line <> "" then
              match Obs.Sink.parse_line line with
              | Ok (time, ev) -> Obs.Sink.emit sink ~time ev
              | Error _ -> incr malformed
          done
        with End_of_file -> ());
    Obs.Timeline.finish timeline;
    let signals = Obs.Signal.of_timeline ~registry timeline in
    let retained = List.length (Obs.Timeline.windows timeline) in
    Printf.printf "trace %s: %d events in %d windows of %g vt (%d retained, %d late-dropped%s)\n"
      file
      (Obs.Timeline.events_seen timeline)
      (Obs.Timeline.window_count timeline)
      width retained
      (Obs.Timeline.dropped timeline)
      (if !malformed > 0 then Printf.sprintf ", %d malformed lines" !malformed else "");
    (match Obs.Metrics.find_histogram registry "timeline.window_events" with
    | Some h ->
        let v = Obs.Metrics.histogram_value h in
        let pct q =
          match Obs.Metrics.quantile v q with Some x -> Printf.sprintf "%.4g" x | None -> "-"
        in
        Printf.printf "events/window: p50=%s p90=%s p99=%s\n" (pct 0.5) (pct 0.9) (pct 0.99)
    | None -> ());
    if not alarms_only then begin
      print_newline ();
      print_table ~csv (Obs.Signal.table ~timeline signals)
    end;
    let alarms = Obs.Signal.alarms signals in
    if alarms = [] then print_endline "\nno detector alarms"
    else begin
      Printf.printf "\ndetector alarms (%d):\n" (List.length alarms);
      print_table ~csv (Obs.Signal.alarm_table signals)
    end;
    (* latest raw signal values, read back through the registry gauges *)
    Printf.printf "final signals:%s\n"
      (String.concat ""
         (List.map
            (fun k ->
              Printf.sprintf " %s=%.4g" (Obs.Signal.short_name k)
                (Obs.Metrics.find_gauge registry ("signal." ^ Obs.Signal.short_name k)))
            Obs.Signal.all));
    match openmetrics with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Obs.Openmetrics.render ~metrics:registry ~timeline ~signals ());
        close_out oc;
        Printf.printf "openmetrics exposition written to %s\n" path
  in
  let term =
    Term.(const run $ file_arg $ width_arg $ capacity_arg $ openmetrics_arg $ alarms_only_arg
          $ csv_arg)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Aggregate a JSONL event trace into fixed-width virtual-time windows, score the defender signals (EWMA + CUSUM burst detection) and render the windowed series, detector alarms and OpenMetrics exposition.")
    term

(* ---- trace ---- *)

let trace_cmd =
  let module Obs = Fortress_obs in
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"JSONL trace file written by $(b,inject --trace-out) (with \
                   $(b,--causal-trace) on for span parentage and latency chains).")
  in
  let limit_arg =
    Arg.(value & opt int 20
         & info [ "limit" ] ~docv:"N" ~doc:"Rows in the critical-path table.")
  in
  let openmetrics_arg =
    Arg.(value & opt (some string) None
         & info [ "openmetrics" ] ~docv:"FILE"
             ~doc:"Write the OpenMetrics exposition of the latency summaries to $(docv).")
  in
  let run file limit openmetrics csv =
    let malformed = ref 0 in
    let events = ref [] in
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            if String.trim line <> "" then
              match Obs.Sink.parse_line line with
              | Ok tev -> events := tev :: !events
              | Error _ -> incr malformed
          done
        with End_of_file -> ());
    let events = List.rev !events in
    let latency = Obs.Latency.of_events events in
    Printf.printf "trace %s: %d events, %d closed latency chains%s\n" file
      (List.length events) (Obs.Latency.total latency)
      (if !malformed > 0 then Printf.sprintf ", %d malformed lines" !malformed else "");
    Printf.printf "\ndetection/reaction latency (virtual time):\n";
    print_table ~csv (Obs.Latency.table latency);
    if Obs.Latency.total latency > 0 then begin
      Printf.printf "\nclosed chains:\n";
      print_table ~csv (Obs.Latency.chain_table latency)
    end;
    Printf.printf "\ncritical paths (causal span trees by elapsed virtual time):\n";
    print_table ~csv (Obs.Latency.critical_path_table ~limit events);
    match openmetrics with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Obs.Openmetrics.render ~latency ());
        close_out oc;
        Printf.printf "openmetrics exposition written to %s\n" path
  in
  let term = Term.(const run $ file_arg $ limit_arg $ openmetrics_arg $ csv_arg) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a JSONL event trace offline: extract the detection/reaction/stall-rekey latency chains, summarise them as distributions and rank the causal span trees by critical-path elapsed time.")
    term

(* ---- prof ---- *)

let prof_cmd =
  let module Profiling = Fortress_exp.Profiling in
  let module Json = Fortress_obs.Json in
  let outdir_arg =
    Arg.(value & opt string "prof-artifacts" & info [ "outdir" ] ~docv:"DIR"
           ~doc:"Directory for trace.json and profile.json.")
  in
  let target_arg =
    Arg.(value & opt float 0.05 & info [ "target" ] ~docv:"REL"
           ~doc:"Target relative ci95 half-width (0.05 = ±5%).")
  in
  let batch_arg =
    Arg.(value & opt int 25 & info [ "batch" ] ~docv:"N"
           ~doc:"Trials per convergence checkpoint.")
  in
  let early_stop_arg =
    Arg.(value & flag
         & info [ "early-stop" ] ~doc:"Stop each class at its first converged checkpoint.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let chi_arg =
    Arg.(value & opt int 256 & info [ "chi" ] ~docv:"CHI" ~doc:"Key-space size.")
  in
  let omega_arg =
    Arg.(value & opt int 8 & info [ "omega" ] ~docv:"OMEGA" ~doc:"Probes per channel per step.")
  in
  let run trials seed target batch early_stop jobs outdir chi omega kappa =
    let t =
      Profiling.run ~trials ~seed ~target_rel:target ~batch ~early_stop ~jobs ~chi ~omega
        ~kappa ()
    in
    print_string (Profiling.render t);
    (try if not (Sys.is_directory outdir) then failwith (outdir ^ " is not a directory")
     with Sys_error _ -> Sys.mkdir outdir 0o755);
    let write name json =
      let path = Filename.concat outdir name in
      Fortress_prof.Trace_export.write ~path json;
      Printf.printf "wrote %s\n" path
    in
    write "trace.json" t.Profiling.trace;
    write "profile.json" t.Profiling.profile;
    Printf.printf "open trace.json at https://ui.perfetto.dev (or chrome://tracing)\n"
  in
  let term =
    Term.(const run $ trials_arg ~default:200 $ seed_arg $ target_arg $ batch_arg
          $ early_stop_arg $ jobs_arg $ outdir_arg $ chi_arg $ omega_arg $ kappa_arg)
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:"Profile the simulation hot paths and report Monte-Carlo convergence per system class; writes Chrome trace.json + profile.json.")
    term

(* ---- report ---- *)

let report_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the report to FILE instead of stdout.")
  in
  let full_arg =
    Arg.(value & flag
         & info [ "full" ] ~doc:"Include Monte-Carlo validation and campaign ablations (slower).")
  in
  let run output full =
    let module Report = Fortress_exp.Report in
    let fidelity = if full then Report.Full else Report.Quick in
    let body = Report.generate ~fidelity () in
    match output with
    | None -> print_string body
    | Some path ->
        let oc = open_out path in
        output_string oc body;
        close_out oc;
        Printf.printf "report written to %s (%d bytes)\n" path (String.length body)
  in
  let term = Term.(const run $ out_arg $ full_arg) in
  Cmd.v
    (Cmd.info "report" ~doc:"Generate the full markdown reproduction report.")
    term

(* ---- export ---- *)

let export_cmd =
  let dir_arg =
    Arg.(value & opt string "data" & info [ "outdir" ] ~docv:"DIR"
           ~doc:"Directory to write the CSVs and gnuplot scripts into.")
  in
  let run dir =
    List.iter
      (fun (path, bytes) -> Printf.printf "wrote %s (%d bytes)\n" path bytes)
      (Fortress_exp.Export.write_all ~dir)
  in
  let term = Term.(const run $ dir_arg) in
  Cmd.v
    (Cmd.info "export" ~doc:"Write the evaluation data as CSV plus gnuplot scripts.")
    term

(* ---- sensitivity ---- *)

let sensitivity_cmd =
  let run alpha kappa csv =
    print_table ~csv (Fortress_exp.Sensitivity.table ~alpha ~kappa ())
  in
  let term = Term.(const run $ alpha_arg $ kappa_arg $ csv_arg) in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Elasticities of expected lifetime with respect to alpha and kappa.")
    term

(* ---- choose ---- *)

let choose_cmd =
  let run () =
    let module Choice_map = Fortress_exp.Choice_map in
    print_string (Choice_map.map_string ());
    print_endline "";
    print_endline "the DSM premium (EL(S0PO) / EL(S2PO)) - the lifetime factor bought by";
    print_endline "making the service a deterministic state machine:";
    print_string (Fortress_util.Table.render (Choice_map.premium_table ()))
  in
  let term = Term.(const run $ const ()) in
  Cmd.v
    (Cmd.info "choose"
       ~doc:"The section-7 design choice, mapped over the (alpha, kappa) plane.")
    term

(* ---- threats ---- *)

let threats_cmd =
  let run () =
    let module Threat = Fortress_defense.Threat in
    let module Keyspace = Fortress_defense.Keyspace in
    let ks = Keyspace.pax_aslr_32bit in
    let stacks =
      [ [];
        [ Threat.W_xor_x ];
        [ Threat.Isr ks ];
        [ Threat.Heap_randomization ks ];
        [ Threat.W_xor_x; Threat.Isr ks; Threat.Heap_randomization ks ];
        [ Threat.Aslr ks ];
        [ Threat.W_xor_x; Threat.Aslr ks ];
        [ Threat.W_xor_x; Threat.Aslr ks; Threat.Got_randomization ks ] ]
    in
    print_string (Fortress_util.Table.render (Threat.matrix_table stacks));
    print_endline "";
    print_endline "reading the table (paper section 2.1): W^X, ISR and heap randomization";
    print_endline "are all bypassed by return-to-libc; only address randomization forces";
    print_endline "the attacker into the keyed de-randomization game the rest of this";
    print_endline "repository models, and layering randomizers multiplies the entropy."
  in
  let term = Term.(const run $ const ()) in
  Cmd.v
    (Cmd.info "threats"
       ~doc:"The section-2.1 defence/attack-vector matrix and effective entropies.")
    term

(* ---- crossover ---- *)

let crossover_cmd =
  let run alpha =
    Printf.printf "kappa* at alpha=%g: %.4f (S2PO outlives S1PO below this kappa)\n" alpha
      (Figures.kappa_crossover_at ~alpha)
  in
  let term = Term.(const run $ alpha_arg) in
  Cmd.v
    (Cmd.info "crossover" ~doc:"Locate the kappa at which S2PO stops outliving S1PO.")
    term

let main_cmd =
  let doc = "FORTRESS attack-resilience evaluation (Clarke & Ezhilchelvan, DSN 2010)" in
  let man =
    [
      `S "DETERMINISM";
      `P
        "Every Monte-Carlo subcommand is reproducible from its seed, including \
         under $(b,--jobs) parallelism: trials are partitioned over worker \
         domains by trial index, each trial's PRNG stream is derived from its \
         index (never from execution order or domain identity), and per-trial \
         outcomes are consumed in index order at the join. Statistics, event \
         traces, convergence checkpoints and trace digests are therefore \
         bit-identical for every job count \u{2014} $(b,--jobs 1) and \
         $(b,--jobs 8) with the same seed produce the same bytes.";
    ]
  in
  let info = Cmd.info "fortress-cli" ~version:"1.0.0" ~doc ~man in
  Cmd.group info
    [ el_cmd; figure1_cmd; figure2_cmd; ordering_cmd; validate_cmd; ablation_cmd; crossover_cmd;
      podc_cmd; shapes_cmd; report_cmd; simulate_cmd; inject_cmd; load_cmd; obs_cmd;
      timeline_cmd;
      trace_cmd; prof_cmd; export_cmd;
      sensitivity_cmd; threats_cmd; choose_cmd ]

(* Degenerate operating points surface as typed exceptions from the linear
   algebra; report them as user errors, not crashes. *)
let () =
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Fortress_util.Matrix.Singular { dim; col } ->
      Printf.eprintf
        "fortress-cli: the %dx%d linear system is singular (no pivot in column %d); this operating point has no finite solution\n"
        dim dim col;
      exit 3
  | exception Fortress_model.Markov.No_transient_states ->
      prerr_endline
        "fortress-cli: the chain has no transient states; every state is already absorbing at this operating point";
      exit 3
  | exception Fortress_model.Markov.Absorption_unreachable { state } ->
      Printf.eprintf
        "fortress-cli: absorption is unreachable from transient state %d; expected lifetime is infinite at this operating point\n"
        state;
      exit 3
  | exception Invalid_argument msg ->
      (* an operating point the models reject, e.g. a key space too small
         for the distinct keys a system draws; same exit code as an
         uncaught exception, without the backtrace noise *)
      Printf.eprintf "fortress-cli: invalid argument: %s\n" msg;
      exit 2
