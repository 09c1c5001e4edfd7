(* A fortified KV service under fire: the full S2 deployment (3 proxies,
   3 PB servers, shared server key, distinct proxy keys) with proactive
   obfuscation, attacked by a simultaneous direct + indirect campaign.

   The run prints a timeline: client traffic flows, probes are logged and
   sources blocked by proxies, rekeys evict any foothold, and the system
   either survives the horizon or the step of compromise is reported.
   A small key space (2^10) is used so compromise happens within the demo.

   Run with: dune exec examples/fortified_kv_service.exe *)

module Engine = Fortress_sim.Engine
module Sink = Fortress_obs.Sink
module Deployment = Fortress_core.Deployment
module Obfuscation = Fortress_core.Obfuscation
module Proxy = Fortress_core.Proxy
module Client = Fortress_core.Client
module Campaign = Fortress_attack.Campaign
module Keyspace = Fortress_defense.Keyspace

let () =
  let deployment =
    Deployment.create
      {
        Deployment.default_config with
        keyspace = Keyspace.of_size (1 lsl 10);
        seed = 2010;
        proxy = { Fortress_core.Proxy.default_config with detection_threshold = 8 };
      }
  in
  let engine = Deployment.engine deployment in
  let tail, render_tail = Sink.tail ~lines:12 in
  ignore (Sink.attach (Engine.sink engine) tail);
  let period = 100.0 in
  let sched = Deployment.obfuscate deployment ~mode:Obfuscation.PO ~period in

  (* legitimate traffic keeps flowing during the attack *)
  let client = Deployment.new_client deployment ~name:"legit-client" in
  let served = ref 0 in
  ignore
    (Engine.every engine ~period:25.0 (fun () ->
         ignore
           (Client.submit client
              ~cmd:(Printf.sprintf "put k%d v%d" !served !served)
              ~on_response:(fun _ -> incr served))));

  let campaign =
    Campaign.launch deployment
      (Campaign.make_config ~omega:48 ~kappa:0.8 ~period ~seed:99 ())
  in
  let horizon = 60 in
  (match Campaign.run_until_compromise campaign ~max_steps:horizon with
  | Some step -> Printf.printf "system COMPROMISED during unit time-step %d\n" step
  | None -> Printf.printf "system SURVIVED the %d-step horizon\n" horizon);

  let stats = Campaign.stats campaign in
  let open Fortress_attack.Campaign_intf in
  Printf.printf "\ncampaign statistics:\n";
  Printf.printf "  direct probes at proxies : %d\n" stats.Stats.direct_probes_sent;
  Printf.printf "  indirect probes sent     : %d\n" stats.Stats.indirect_probes_sent;
  Printf.printf "  indirect probes blocked  : %d\n" stats.Stats.indirect_probes_blocked;
  Printf.printf "  launch-pad probes        : %d\n" stats.Stats.launchpad_probes_sent;
  Printf.printf "  attacker sources burned  : %d\n" stats.Stats.sources_burned;
  Printf.printf "  effective kappa achieved : %.3f (intended 0.8)\n"
    (Campaign.effective_kappa campaign);
  Printf.printf "\ndefence statistics:\n";
  Printf.printf "  obfuscation steps        : %d (%s)\n"
    (Obfuscation.steps_completed sched)
    (Obfuscation.mode_to_string (Obfuscation.mode sched));
  Array.iter
    (fun proxy ->
      Printf.printf "  proxy %d: %d invalid requests logged, %d sources blocked\n"
        (Proxy.index proxy) (Proxy.invalid_observed proxy)
        (List.length (Proxy.blocked_sources proxy)))
    (Deployment.proxies deployment);
  Printf.printf "  legit requests served    : %d\n" !served;

  print_endline "\nlast trace events:";
  print_string (render_tail ())
