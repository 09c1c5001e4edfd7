module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Latency = Fortress_net.Latency
module Address = Fortress_net.Address
module Sign = Fortress_crypto.Sign
module Smr = Fortress_replication.Smr
module Dsm = Fortress_replication.Dsm
module Keyspace = Fortress_defense.Keyspace
module Instance = Fortress_defense.Instance
module Prng = Fortress_util.Prng
module Nonce = Fortress_crypto.Nonce
module Event = Fortress_obs.Event

type config = {
  n : int;
  f : int;
  service : Dsm.t;
  keyspace : Keyspace.t;
  smr : Smr.config;
  latency : Latency.t;
  seed : int;
}

let default_config =
  {
    n = 4;
    f = 1;
    service = Fortress_replication.Services.kv;
    keyspace = Keyspace.pax_aslr_32bit;
    smr = Smr.default_config;
    latency = Latency.constant 0.5;
    seed = 0;
  }

type t = {
  cfg : config;
  engine : Engine.t;
  net : Smr.msg Network.t;
  replicas : Smr.replica array;
  instances : Instance.t array;
  addresses : Address.t array;
  comp : bool array;
  mutable daemon : Obfuscation.t option;
}

let create cfg =
  let engine = Engine.create ~prng:(Prng.create ~seed:cfg.seed) () in
  let prng = Engine.prng engine in
  let net = Network.create ~latency:cfg.latency engine in
  let addresses =
    Array.init cfg.n (fun i ->
        Network.register net ~name:(Printf.sprintf "smr%d" i) ~handler:(fun ~src:_ _ -> ()))
  in
  (* diverse randomization: each replica gets its own distinct key *)
  let used = ref [] in
  let instances =
    Array.init cfg.n (fun _ ->
        let inst = Instance.create cfg.keyspace prng in
        let rec fresh () =
          let k = Keyspace.random_key cfg.keyspace prng in
          if List.mem k !used then fresh () else k
        in
        let k = fresh () in
        used := k :: !used;
        Instance.set_key inst k;
        inst)
  in
  let smr_config = { cfg.smr with Smr.n = cfg.n; f = cfg.f } in
  let replicas =
    Array.init cfg.n (fun i ->
        let secret, _ = Sign.generate prng in
        Smr.create ~engine ~config:smr_config ~index:i ~service:cfg.service ~secret
          ~self:addresses.(i) ~addresses
          ~send:(fun ~dst msg -> Network.send net ~src:addresses.(i) ~dst msg))
  in
  Array.iteri
    (fun i addr ->
      Network.set_handler net addr (fun ~src msg -> Smr.handle replicas.(i) ~src msg))
    addresses;
  Array.iter Smr.start replicas;
  { cfg; engine; net; replicas; instances; addresses; comp = Array.make cfg.n false; daemon = None }

let engine t = t.engine
let network t = t.net
let replicas t = t.replicas
let instances t = t.instances
let addresses t = t.addresses

(* What an attacker-side liveness check observes: a down replica times
   out. Pure read — no PRNG, no events. *)
let replica_unreachable t i =
  (not (Network.quiescent t.net))
  && i >= 0 && i < t.cfg.n
  && not (Network.is_up t.net t.addresses.(i))

let symptoms t =
  if Network.quiescent t.net then []
  else begin
    let acc = ref [] in
    for i = t.cfg.n - 1 downto 0 do
      if replica_unreachable t i then
        acc := Symptom.Unreachable (Fortress_model.Node_id.Replica i) :: !acc
    done;
    !acc
  end

(* The client emits the same [Request_submitted] / [Request_completed]
   pair the fortress {!Client} emits, so workload accounting — timelines,
   goodput windows — reads one event stream on either stack. *)
type client = {
  c_engine : Engine.t;
  c_net : Smr.msg Network.t;
  c_self : Address.t;
  c_addresses : Address.t array;
  voter : Smr.Voter.t;
  nonce_source : Nonce.source;
  callbacks : (string, string -> unit) Hashtbl.t;
  mutable c_accepted : int;
}

let new_client t ~name =
  let self = Network.register t.net ~name ~handler:(fun ~src:_ _ -> ()) in
  let voter =
    Smr.Voter.create ~f:t.cfg.f ~public_keys:(Array.map Smr.public_key t.replicas)
  in
  let client =
    {
      c_engine = t.engine;
      c_net = t.net;
      c_self = self;
      c_addresses = t.addresses;
      voter;
      nonce_source = Nonce.source (Prng.split (Engine.prng t.engine));
      callbacks = Hashtbl.create 16;
      c_accepted = 0;
    }
  in
  Network.set_handler t.net self (fun ~src:_ msg ->
      match msg with
      | Smr.Reply r -> (
          match Smr.Voter.offer client.voter r with
          | Some response -> (
              client.c_accepted <- client.c_accepted + 1;
              let id = r.Smr.request_id in
              match Hashtbl.find_opt client.callbacks id with
              | Some k ->
                  Hashtbl.remove client.callbacks id;
                  Engine.emit t.engine (Event.Request_completed { id; accepted = true });
                  k response
              | None -> ())
          | None -> ())
      | _ -> ());
  client

let submit c ~cmd ~on_response =
  let id = Nonce.to_string (Nonce.fresh c.nonce_source) in
  Hashtbl.replace c.callbacks id on_response;
  Array.iter
    (fun dst ->
      Network.send c.c_net ~src:c.c_self ~dst (Smr.Request { id; cmd; reply_to = c.c_self }))
    c.c_addresses;
  Engine.emit c.c_engine (Event.Request_submitted { id });
  id

let client_accepted c = c.c_accepted

let cycle_replica t i ~fresh_key =
  let replica = t.replicas.(i) in
  Smr.stop replica;
  Network.set_down t.net t.addresses.(i);
  (if fresh_key then
     let prng = Engine.prng t.engine in
     let rec fresh () =
       let k = Keyspace.random_key t.cfg.keyspace prng in
       let clash =
         Array.exists (fun inst -> inst != t.instances.(i) && Instance.key inst = k) t.instances
       in
       if clash then fresh () else k
     in
     Instance.set_key t.instances.(i) (fresh ())
   else Instance.recover t.instances.(i));
  t.comp.(i) <- false;
  Smr.set_compromised replica false;
  (* the wipe-and-restore happens promptly: rejoin via state transfer *)
  ignore
    (Engine.schedule t.engine ~delay:0.5 (fun () ->
         Network.set_up t.net t.addresses.(i);
         Smr.restart replica;
         Smr.begin_state_transfer replica))

let rekey_batch t batch = List.iter (fun i -> cycle_replica t i ~fresh_key:true) batch
let recover_batch t batch = List.iter (fun i -> cycle_replica t i ~fresh_key:false) batch

let batches t =
  let rec chunk acc current count = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | i :: rest ->
        if count = t.cfg.f then chunk (List.rev current :: acc) [ i ] 1 rest
        else chunk acc (i :: current) (count + 1) rest
  in
  chunk [] [] 0 (List.init t.cfg.n Fun.id)

(* Batches fire at the boundary itself and then one spacing apart; the
   spacing reads the daemon's live period at each boundary, so a defender's
   period change also respaces the batches of the next step. *)
let obfuscate ?(stagger = true) t ~mode ~period =
  if Option.is_some t.daemon then
    invalid_arg "Smr_deployment.obfuscate: a daemon is already running";
  let bs = batches t in
  let nb = List.length bs in
  let daemon =
    Obfuscation.start t.engine ~mode ~period (fun daemon ->
        let spacing =
          if stagger then Obfuscation.period daemon /. float_of_int (nb + 1) else 1.0
        in
        List.iteri
          (fun bi batch ->
            ignore
              (Engine.schedule t.engine ~delay:(spacing *. float_of_int bi) (fun () ->
                   match mode with
                   | Obfuscation.PO -> rekey_batch t batch
                   | Obfuscation.SO -> recover_batch t batch)))
          bs)
  in
  t.daemon <- Some daemon;
  daemon

let obfuscation t = t.daemon

let crash_replica t i =
  Network.set_down t.net t.addresses.(i);
  Smr.crash t.replicas.(i);
  t.comp.(i) <- false;
  Smr.set_compromised t.replicas.(i) false;
  Engine.emit t.engine
    (Fortress_obs.Event.Fault
       {
         action = "crash";
         target = Fortress_model.Node_id.to_string (Fortress_model.Node_id.Replica i);
         detail = "";
       })

let restart_replica t i =
  Network.set_up t.net t.addresses.(i);
  Smr.restart t.replicas.(i);
  Smr.begin_state_transfer t.replicas.(i);
  Engine.emit t.engine
    (Fortress_obs.Event.Fault
       {
         action = "restart";
         target = Fortress_model.Node_id.to_string (Fortress_model.Node_id.Replica i);
         detail = "state transfer";
       })

let compromise t i =
  t.comp.(i) <- true;
  Smr.set_compromised t.replicas.(i) true;
  Engine.emit t.engine
    (Fortress_obs.Event.Compromise { tier = Fortress_obs.Event.Server_tier; index = i })

let compromised t i = t.comp.(i)
let compromised_count t = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.comp
let system_compromised t = compromised_count t > t.cfg.f
