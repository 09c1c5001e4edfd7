module Engine = Fortress_sim.Engine
module Deployment = Fortress_core.Deployment
module Obfuscation = Fortress_core.Obfuscation
module Client = Fortress_core.Client
module Campaign = Fortress_attack.Campaign
module Keyspace = Fortress_defense.Keyspace
module Stats = Fortress_util.Stats
module Table = Fortress_util.Table

type point = {
  omega : int;
  offered : int;
  served : int;
  served_fraction : float;
  mean_rtt : float;
  survived_steps : int;
}

let run_one ~omega ~requests ~horizon ~chi ~seed =
  let period = 100.0 in
  let deployment =
    Deployment.create
      { Deployment.default_config with keyspace = Keyspace.of_size chi; seed }
  in
  let engine = Deployment.engine deployment in
  ignore (Deployment.obfuscate deployment ~mode:Obfuscation.PO ~period);
  let client = Deployment.new_client deployment ~name:"workload" in
  let rtts = Stats.create () in
  let served = ref 0 in
  let interval = period *. float_of_int horizon /. float_of_int requests in
  for i = 0 to requests - 1 do
    ignore
      (Engine.schedule engine
         ~delay:(interval *. float_of_int i)
         (fun () ->
           let started = Engine.now engine in
           ignore
             (Client.submit client
                ~cmd:(Printf.sprintf "put k%d v" i)
                ~on_response:(fun _ ->
                  incr served;
                  Stats.add rtts (Engine.now engine -. started)))))
  done;
  let survived =
    if omega = 0 then begin
      Engine.run ~until:(period *. float_of_int horizon) engine;
      horizon
    end
    else begin
      let campaign =
        Campaign.launch deployment
          (Campaign.make_config ~omega ~kappa:0.8 ~period ~seed:(seed + 13) ())
      in
      match Campaign.run_until_compromise campaign ~max_steps:horizon with
      | Some step -> step
      | None -> horizon
    end
  in
  (* drain outstanding replies *)
  Engine.run ~until:(Engine.now engine +. (2.0 *. period)) engine;
  {
    omega;
    offered = requests;
    served = !served;
    served_fraction = float_of_int !served /. float_of_int requests;
    mean_rtt = Stats.mean rtts;
    survived_steps = survived;
  }

let run ?(omegas = [ 0; 8; 32; 128 ]) ?(requests = 100) ?(horizon = 30) ?(chi = 1 lsl 14)
    ?(seed = 3) () =
  List.map (fun omega -> run_one ~omega ~requests ~horizon ~chi ~seed) omegas

let table points =
  let t =
    Table.create
      ~headers:
        [ "attacker omega"; "offered"; "served"; "served %"; "mean RTT"; "survived steps" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          string_of_int p.omega;
          string_of_int p.offered;
          string_of_int p.served;
          Printf.sprintf "%.0f%%" (100.0 *. p.served_fraction);
          Printf.sprintf "%.2f" p.mean_rtt;
          string_of_int p.survived_steps;
        ])
    points;
  t
