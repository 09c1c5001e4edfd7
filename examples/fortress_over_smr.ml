(* FORTRESS with an SMR server tier — and why you would want one.

   The paper separates surviving attacks (proxies + obfuscation) from
   replication (PB or SMR). The PB tier is simpler and replicates any
   service, but a single intruded server poisons every reply, because
   backups attest to the primary's response. An SMR tier costs determinism
   and agreement traffic, but the proxies vote over f+1 signed replies, so
   one intruded replica is *masked*. This example runs the same intrusion
   against both tiers.

   Run with: dune exec examples/fortress_over_smr.exe *)

module Engine = Fortress_sim.Engine
module Deployment = Fortress_core.Deployment
module Client = Fortress_core.Client
module Smr_deployment = Fortress_core.Smr_deployment
module Smr_fortress = Fortress_core.Smr_fortress

let () =
  (* --- PB tier with an intruded primary --- *)
  let pb = Deployment.create Deployment.default_config in
  Deployment.compromise_server pb 0;
  let pb_client = Deployment.new_client pb ~name:"pb-client" in
  let pb_response = ref "(no answer)" in
  ignore (Client.submit pb_client ~cmd:"put k v" ~on_response:(fun r -> pb_response := r));
  Engine.run ~until:100.0 (Deployment.engine pb);
  Printf.printf "PB tier, primary intruded      -> client accepted: %s\n" !pb_response;

  (* --- SMR tier with one intruded replica --- *)
  let smr = Smr_fortress.create Smr_fortress.default_config in
  Smr_deployment.compromise (Smr_fortress.tier smr) 0;
  let smr_client = Smr_fortress.new_client smr ~name:"smr-client" in
  let smr_response = ref "(no answer)" in
  ignore
    (Smr_fortress.submit smr_client ~cmd:"put k v" ~on_response:(fun r -> smr_response := r));
  Engine.run ~until:200.0 (Smr_fortress.engine smr);
  Printf.printf "SMR tier, one replica intruded -> client accepted: %s\n" !smr_response;
  Printf.printf "SMR tier system compromised?      %b (tolerates f = 1)\n"
    (Smr_fortress.system_compromised smr);

  (* --- but SMR needs determinism: the lottery service diverges --- *)
  let lottery =
    Smr_fortress.create
      {
        Smr_fortress.default_config with
        tier =
          {
            Smr_fortress.default_config.tier with
            service = Fortress_replication.Services.lottery;
          };
      }
  in
  let l_client = Smr_fortress.new_client lottery ~name:"l-client" in
  let l_response = ref "(no agreement)" in
  ignore
    (Smr_fortress.submit l_client ~cmd:"draw 1000000000"
       ~on_response:(fun r -> l_response := r));
  Engine.run ~until:200.0 (Smr_fortress.engine lottery);
  Printf.printf "\nSMR tier, nondeterministic service -> %s\n" !l_response;
  print_endline "(no f+1 replicas agree on a random draw, so no proxy can vote it";
  print_endline " through: this is the DSM requirement that motivates FORTRESS-over-PB)"
