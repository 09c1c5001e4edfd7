module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Latency = Fortress_net.Latency
module Address = Fortress_net.Address
module Sign = Fortress_crypto.Sign
module Pb = Fortress_replication.Pb
module Dsm = Fortress_replication.Dsm
module Keyspace = Fortress_defense.Keyspace
module Instance = Fortress_defense.Instance
module Prng = Fortress_util.Prng
module Event = Fortress_obs.Event
module Node_id = Fortress_model.Node_id

type config = {
  np : int;
  ns : int;
  service : Dsm.t;
  service_name : string;
  keyspace : Keyspace.t;
  pb : Pb.config;
  proxy : Proxy.config;
  latency : Latency.t;
  seed : int;
}

let default_config =
  {
    np = 3;
    ns = 3;
    service = Fortress_replication.Services.kv;
    service_name = "kv";
    keyspace = Keyspace.pax_aslr_32bit;
    pb = Pb.default_config;
    proxy = Proxy.default_config;
    latency = Latency.constant 0.5;
    seed = 0;
  }

type t = {
  cfg : config;
  engine : Engine.t;
  net : Message.t Network.t;
  nameserver : Nameserver.t;
  record : Nameserver.record;
  proxies : Proxy.t array;
  servers : Pb.replica array;
  proxy_instances : Instance.t array;
  server_instances : Instance.t array;
  proxy_addresses : Address.t array;
  server_addresses : Address.t array;
  server_comp : bool array;
  proxy_comp : bool array;
  key_prng : Prng.t;
      (* obfuscation key draws live on their own stream, decoupled from the
         engine's: network-level perturbations (fault injection, extra
         clients) never change which keys the defense rotates through, so
         runs under different fault plans stay pairwise comparable *)
  mutable client_count : int;
  mutable daemon : Obfuscation.t option;
}

(* Draw a key distinct from every key in [avoid]. *)
let rec fresh_key keyspace prng avoid =
  let k = Keyspace.random_key keyspace prng in
  if List.mem k avoid then fresh_key keyspace prng avoid else k

let create cfg =
  if cfg.np < 0 then invalid_arg "Deployment.create: np must be >= 0";
  if cfg.ns < 1 then invalid_arg "Deployment.create: ns must be >= 1";
  let engine = Engine.create ~prng:(Prng.create ~seed:cfg.seed) () in
  let prng = Engine.prng engine in
  let key_prng = Prng.create ~seed:(cfg.seed lxor 0x6b657973) in
  let net = Network.create ~latency:cfg.latency engine in
  (* addresses first, handlers wired once the nodes exist *)
  let server_addresses =
    Array.init cfg.ns (fun i ->
        Network.register net ~name:(Printf.sprintf "server%d" i) ~handler:(fun ~src:_ _ -> ()))
  in
  let proxy_addresses =
    Array.init cfg.np (fun i ->
        Network.register net ~name:(Printf.sprintf "proxy%d" i) ~handler:(fun ~src:_ _ -> ()))
  in
  (* randomization: one shared key for the servers, a distinct key per proxy *)
  let server_key = Keyspace.random_key cfg.keyspace key_prng in
  let server_instances =
    Array.init cfg.ns (fun _ ->
        let inst = Instance.create cfg.keyspace key_prng in
        Instance.set_key inst server_key;
        inst)
  in
  let proxy_keys = ref [ server_key ] in
  let proxy_instances =
    Array.init cfg.np (fun _ ->
        let inst = Instance.create cfg.keyspace key_prng in
        let k = fresh_key cfg.keyspace key_prng !proxy_keys in
        proxy_keys := k :: !proxy_keys;
        Instance.set_key inst k;
        inst)
  in
  let pb_config = { cfg.pb with Pb.ns = cfg.ns } in
  let servers =
    Array.init cfg.ns (fun i ->
        let secret, _ = Sign.generate prng in
        Pb.create ~engine ~config:pb_config ~index:i ~service:cfg.service ~secret
          ~self:server_addresses.(i) ~addresses:server_addresses
          (fun ~dst msg ->
            Network.send net ~src:server_addresses.(i) ~dst (Message.Server msg)))
  in
  Array.iteri
    (fun i addr ->
      Network.set_handler net addr (fun ~src msg ->
          match msg with
          | Message.Server m -> Pb.handle servers.(i) ~src m
          | Message.Client_request _ | Message.Client_reply _ ->
              (* servers accept messages only from proxies and the
                 nameserver: client-tier traffic is dropped *)
              ()))
    server_addresses;
  let server_keys = Array.map Pb.public_key servers in
  let proxies =
    Array.init cfg.np (fun i ->
        let secret, _ = Sign.generate prng in
        Proxy.create ~engine ~config:cfg.proxy ~index:i ~secret ~self:proxy_addresses.(i)
          ~server_addresses ~server_keys
          ~send:(fun ~dst msg -> Network.send net ~src:proxy_addresses.(i) ~dst msg))
  in
  Array.iteri
    (fun i addr ->
      Network.set_handler net addr (fun ~src msg -> Proxy.handle proxies.(i) ~src msg))
    proxy_addresses;
  Array.iter Pb.start servers;
  let record =
    {
      Nameserver.service = cfg.service_name;
      proxy_addresses;
      proxy_keys = Array.map Proxy.public_key proxies;
      server_indices = Array.init cfg.ns Fun.id;
      server_keys;
      replication = Nameserver.Primary_backup;
    }
  in
  let nameserver = Nameserver.create () in
  Nameserver.publish nameserver record;
  {
    cfg;
    engine;
    net;
    nameserver;
    record;
    proxies;
    servers;
    proxy_instances;
    server_instances;
    proxy_addresses;
    server_addresses;
    server_comp = Array.make cfg.ns false;
    proxy_comp = Array.make (max cfg.np 1) false;
    key_prng;
    client_count = 0;
    daemon = None;
  }

let config t = t.cfg
let engine t = t.engine
let attach_telemetry ?window ?capacity ?alarms ?params t =
  Engine.attach_telemetry ?window ?capacity ?alarms ?params t.engine
let network t = t.net
let nameserver t = t.nameserver
let record t = t.record
let proxies t = t.proxies
let servers t = t.servers
let proxy_instances t = t.proxy_instances
let server_instances t = t.server_instances
let proxy_addresses t = t.proxy_addresses
let server_addresses t = t.server_addresses

let new_client t ~name =
  t.client_count <- t.client_count + 1;
  let self = Network.register t.net ~name ~handler:(fun ~src:_ _ -> ()) in
  let mode =
    if t.cfg.np > 0 then Client.Via_proxies t.record
    else
      Client.Direct_servers
        { addresses = t.server_addresses; keys = t.record.Nameserver.server_keys }
  in
  let client =
    Client.create ~engine:t.engine ~mode ~self
      ~send:(fun ~dst msg -> Network.send t.net ~src:self ~dst msg)
      (Prng.split (Engine.prng t.engine))
  in
  Network.set_handler t.net self (fun ~src msg -> Client.handle client ~src msg);
  client

let new_attacker_address t ~name ~handler = Network.register t.net ~name ~handler

let clear_compromises t =
  Array.iteri
    (fun i _ ->
      t.server_comp.(i) <- false;
      Pb.set_compromised t.servers.(i) false)
    t.server_comp;
  Array.iter (fun p -> Proxy.set_compromised p false) t.proxies;
  Array.fill t.proxy_comp 0 (Array.length t.proxy_comp) false

(* An obfuscation boundary only reaches nodes that are up: a crashed node
   cannot re-randomize, so it keeps its stale key (and the attacker's
   accumulated knowledge about it) until it is rekeyed after restart. *)
let rekey t =
  let prng = t.key_prng in
  let server_key = Keyspace.random_key t.cfg.keyspace prng in
  let missed = ref 0 in
  Array.iteri
    (fun i inst ->
      if Network.is_up t.net t.server_addresses.(i) then Instance.set_key inst server_key
      else incr missed)
    t.server_instances;
  let used = ref [ server_key ] in
  Array.iteri
    (fun i inst ->
      let k = fresh_key t.cfg.keyspace prng !used in
      used := k :: !used;
      if Network.is_up t.net t.proxy_addresses.(i) then Instance.set_key inst k
      else incr missed)
    t.proxy_instances;
  clear_compromises t;
  if !missed > 0 then
    Engine.emit t.engine
      (Event.Fault
         {
           action = "rekey_miss";
           target = "deployment";
           detail = Printf.sprintf "%d down nodes kept stale keys" !missed;
         });
  Engine.emit t.engine (Event.Rekey { nodes = t.cfg.ns + t.cfg.np - !missed })

let recover t =
  let missed = ref 0 in
  Array.iteri
    (fun i inst ->
      if Network.is_up t.net t.server_addresses.(i) then Instance.recover inst
      else incr missed)
    t.server_instances;
  Array.iteri
    (fun i inst ->
      if Network.is_up t.net t.proxy_addresses.(i) then Instance.recover inst
      else incr missed)
    t.proxy_instances;
  clear_compromises t;
  if !missed > 0 then
    Engine.emit t.engine
      (Event.Fault
         {
           action = "recover_miss";
           target = "deployment";
           detail = Printf.sprintf "%d down nodes not recovered" !missed;
         });
  Engine.emit t.engine (Event.Recover { nodes = t.cfg.ns + t.cfg.np - !missed })

let obfuscate t ~mode ~period =
  if Option.is_some t.daemon then invalid_arg "Deployment.obfuscate: a daemon is already running";
  let daemon =
    Obfuscation.start t.engine ~mode ~period (fun _ ->
        Engine.causal_scope t.engine "obf.boundary" (fun () ->
            match mode with Obfuscation.PO -> rekey t | Obfuscation.SO -> recover t))
  in
  t.daemon <- Some daemon;
  daemon

let obfuscation t = t.daemon

(* ---- crash faults ---- *)

let fault t ~action ~target ~detail = Engine.emit t.engine (Event.Fault { action; target; detail })

let crash_server t i =
  (* the process dies: the intruder's foothold dies with it *)
  Network.set_down t.net t.server_addresses.(i);
  Pb.crash t.servers.(i);
  t.server_comp.(i) <- false;
  Pb.set_compromised t.servers.(i) false;
  fault t ~action:"crash" ~target:(Node_id.to_string (Node_id.Server i)) ~detail:""

let restart_server t i =
  Network.set_up t.net t.server_addresses.(i);
  Pb.restart t.servers.(i);
  fault t ~action:"restart" ~target:(Node_id.to_string (Node_id.Server i)) ~detail:"network resync"

let crash_proxy t i =
  Network.set_down t.net t.proxy_addresses.(i);
  Proxy.crash_reset t.proxies.(i);
  t.proxy_comp.(i) <- false;
  Proxy.set_compromised t.proxies.(i) false;
  fault t ~action:"crash" ~target:(Node_id.to_string (Node_id.Proxy i)) ~detail:""

let restart_proxy t i =
  Network.set_up t.net t.proxy_addresses.(i);
  fault t ~action:"restart" ~target:(Node_id.to_string (Node_id.Proxy i))
    ~detail:"blocklist forgotten"

let crash_nameserver t =
  Nameserver.set_down t.nameserver;
  fault t ~action:"crash" ~target:(Node_id.to_string Node_id.Nameserver) ~detail:""

let restart_nameserver t =
  Nameserver.set_up t.nameserver;
  fault t ~action:"restart" ~target:(Node_id.to_string Node_id.Nameserver) ~detail:""

let compromise_server t i =
  t.server_comp.(i) <- true;
  Pb.set_compromised t.servers.(i) true;
  Engine.emit t.engine (Event.Compromise { tier = Event.Server_tier; index = i })

let compromise_proxy t i =
  t.proxy_comp.(i) <- true;
  Proxy.set_compromised t.proxies.(i) true;
  Engine.emit t.engine (Event.Compromise { tier = Event.Proxy_tier; index = i })

(* ---- external symptom surface ----

   What an attacker-side liveness check observes right now, with no access
   to defender internals: a request to a down node, or to a proxy cut off
   from every live server, simply times out. These reads consume no PRNG
   and emit no events, so sampling them never perturbs a trace. *)

let server_unreachable t i =
  (not (Network.quiescent t.net))
  && i >= 0 && i < t.cfg.ns
  && not (Network.is_up t.net t.server_addresses.(i))

let proxy_unreachable t i =
  (not (Network.quiescent t.net))
  && i >= 0 && i < t.cfg.np
  && (not (Network.is_up t.net t.proxy_addresses.(i))
     || not
          (Array.exists
             (fun s -> Network.is_up t.net s && not (Network.partitioned t.net t.proxy_addresses.(i) s))
             t.server_addresses))

(* The list is in node order: servers, proxies, nameserver. The quiescent
   precheck must also cover the nameserver — its liveness is tracked by
   Nameserver.set_down, not by the network — or a nameserver-only outage
   would read as symptom-free. *)
let symptoms t =
  if Network.quiescent t.net && Nameserver.is_up t.nameserver then []
  else begin
    let acc = ref [] in
    if not (Nameserver.is_up t.nameserver) then
      acc := Symptom.Unreachable Node_id.Nameserver :: !acc;
    for j = t.cfg.np - 1 downto 0 do
      if proxy_unreachable t j then acc := Symptom.Unreachable (Node_id.Proxy j) :: !acc
    done;
    for i = t.cfg.ns - 1 downto 0 do
      if server_unreachable t i then acc := Symptom.Unreachable (Node_id.Server i) :: !acc
    done;
    !acc
  end

let server_compromised t i = t.server_comp.(i)
let proxy_compromised t i = t.cfg.np > 0 && t.proxy_comp.(i)

let compromised_proxy_count t =
  Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0
    (Array.sub t.proxy_comp 0 t.cfg.np)

let system_compromised t =
  Array.exists Fun.id t.server_comp
  || (t.cfg.np > 0 && compromised_proxy_count t = t.cfg.np)
