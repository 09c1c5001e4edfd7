module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Address = Fortress_net.Address
module Sign = Fortress_crypto.Sign
module Nonce = Fortress_crypto.Nonce
module Smr = Fortress_replication.Smr
module Keyspace = Fortress_defense.Keyspace
module Instance = Fortress_defense.Instance
module Prng = Fortress_util.Prng

type msg =
  | Client_request of { id : string; cmd : string; client : Address.t }
  | Client_reply of {
      reply : Smr.reply;
      proxy_index : int;
      proxy_signature : Sign.signature;
    }

let over_sign_payload ~reply ~proxy_index =
  let module P = Fortress_crypto.Payload in
  let { Smr.request_id; response; server_index; view; signature } = reply in
  let signature = (signature :> string) in
  let p =
    P.create "fortress-smr-oversign"
      ~fields:
        (P.str_width request_id + P.str_width response + P.int_width server_index
       + P.int_width view + P.hex_width signature + P.int_width proxy_index)
  in
  P.add_str p request_id;
  P.add_str p response;
  P.add_int p server_index;
  P.add_int p view;
  P.add_hex p signature;
  P.add_int p proxy_index;
  P.contents p

type config = {
  tier : Smr_deployment.config;
  np : int;
  proxy_detection_window : float;
  proxy_detection_threshold : int;
}

let default_config =
  {
    tier = Smr_deployment.default_config;
    np = 3;
    proxy_detection_window = 100.0;
    proxy_detection_threshold = 10;
  }

(* A proxy's view of one outstanding request. *)
type pending = { mutable waiting : Address.t list; mutable answered : bool }

type proxy = {
  p_index : int;
  p_secret : Sign.secret_key;
  p_self : Address.t;  (** on the front network *)
  p_tier : Address.t;  (** on the tier's network *)
  voter : Smr.Voter.t;
  p_pending : (string, pending) Hashtbl.t;
  invalid_log : (Address.t, float Queue.t) Hashtbl.t;
  blocked : (Address.t, unit) Hashtbl.t;
  mutable invalid_total : int;
  mutable p_relayed : int;
  mutable p_compromised : bool;
}

type t = {
  cfg : config;
  tier : Smr_deployment.t;
  front : msg Network.t;
  proxies : proxy array;
  proxy_instances : Instance.t array;
}

let engine t = Smr_deployment.engine t.tier

(* Fresh proxy keys, distinct from each other and from every current
   replica key, so np + n keys are in use. *)
let assign_proxy_keys tier keyspace prng instances =
  let used = ref (Array.to_list (Array.map Instance.key (Smr_deployment.instances tier))) in
  Array.iter
    (fun inst ->
      let rec fresh () =
        let k = Keyspace.random_key keyspace prng in
        if List.mem k !used then fresh () else k
      in
      let k = fresh () in
      used := k :: !used;
      Instance.set_key inst k)
    instances

(* ---- proxy behaviour ---- *)

let note_invalid t proxy src =
  proxy.invalid_total <- proxy.invalid_total + 1;
  let now = Engine.now (engine t) in
  let q =
    match Hashtbl.find_opt proxy.invalid_log src with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace proxy.invalid_log src q;
        q
  in
  Queue.push now q;
  while
    (not (Queue.is_empty q)) && Queue.peek q < now -. t.cfg.proxy_detection_window
  do
    ignore (Queue.pop q)
  done;
  if Queue.length q > t.cfg.proxy_detection_threshold then Hashtbl.replace proxy.blocked src ()

let proxy_handle_request t proxy ~src ~id ~cmd ~client =
  if not (Hashtbl.mem proxy.blocked src) then begin
    if Message.is_probe_command cmd then note_invalid t proxy src;
    if not (Hashtbl.mem proxy.blocked src) then begin
      let entry =
        match Hashtbl.find_opt proxy.p_pending id with
        | Some p -> p
        | None ->
            let p = { waiting = []; answered = false } in
            Hashtbl.replace proxy.p_pending id p;
            p
      in
      if not (List.mem client entry.waiting) then entry.waiting <- client :: entry.waiting;
      let tier_net = Smr_deployment.network t.tier in
      Array.iter
        (fun dst ->
          Network.send tier_net ~src:proxy.p_tier ~dst
            (Smr.Request { id; cmd; reply_to = proxy.p_tier }))
        (Smr_deployment.addresses t.tier)
    end
  end

let proxy_handle_reply t proxy (reply : Smr.reply) =
  (* the vote both authenticates and masks up to f intruded replicas *)
  match Smr.Voter.offer proxy.voter reply with
  | None -> ()
  | Some _agreed -> (
      match Hashtbl.find_opt proxy.p_pending reply.Smr.request_id with
      | None -> ()
      | Some entry ->
          if not entry.answered then begin
            entry.answered <- true;
            let proxy_signature =
              Sign.sign proxy.p_secret
                (over_sign_payload ~reply ~proxy_index:proxy.p_index)
            in
            List.iter
              (fun client ->
                proxy.p_relayed <- proxy.p_relayed + 1;
                Network.send t.front ~src:proxy.p_self ~dst:client
                  (Client_reply { reply; proxy_index = proxy.p_index; proxy_signature }))
              entry.waiting;
            entry.waiting <- []
          end)

(* ---- construction ---- *)

let create cfg =
  if cfg.np < 1 then invalid_arg "Smr_fortress.create: np must be >= 1";
  let tier = Smr_deployment.create cfg.tier in
  let engine = Smr_deployment.engine tier in
  let prng = Engine.prng engine in
  let front = Network.create ~latency:cfg.tier.Smr_deployment.latency engine in
  let tier_net = Smr_deployment.network tier in
  let keyspace = cfg.tier.Smr_deployment.keyspace in
  let proxy_instances = Array.init cfg.np (fun _ -> Instance.create keyspace prng) in
  assign_proxy_keys tier keyspace prng proxy_instances;
  let server_keys = Array.map Smr.public_key (Smr_deployment.replicas tier) in
  let proxies =
    Array.init cfg.np (fun i ->
        let secret, _ = Sign.generate prng in
        let name = Printf.sprintf "smr-proxy%d" i in
        {
          p_index = i;
          p_secret = secret;
          p_self = Network.register front ~name ~handler:(fun ~src:_ _ -> ());
          p_tier = Network.register tier_net ~name ~handler:(fun ~src:_ _ -> ());
          voter = Smr.Voter.create ~f:cfg.tier.Smr_deployment.f ~public_keys:server_keys;
          p_pending = Hashtbl.create 32;
          invalid_log = Hashtbl.create 16;
          blocked = Hashtbl.create 16;
          invalid_total = 0;
          p_relayed = 0;
          p_compromised = false;
        })
  in
  let t = { cfg; tier; front; proxies; proxy_instances } in
  (* an intruded proxy answers nothing, on either network *)
  Array.iter
    (fun p ->
      Network.set_handler front p.p_self (fun ~src msg ->
          match msg with
          | Client_request { id; cmd; client } when not p.p_compromised ->
              proxy_handle_request t p ~src ~id ~cmd ~client
          | Client_request _ | Client_reply _ -> ());
      Network.set_handler tier_net p.p_tier (fun ~src:_ msg ->
          match msg with
          | Smr.Reply reply when not p.p_compromised -> proxy_handle_reply t p reply
          | _ -> ()))
    proxies;
  t

let tier t = t.tier
let proxy_instances t = t.proxy_instances
let proxy_invalid_observed t i = t.proxies.(i).invalid_total
let proxy_is_blocked t i src = Hashtbl.mem t.proxies.(i).blocked src
let proxy_relayed t i = t.proxies.(i).p_relayed

(* ---- client ---- *)

type client = {
  c_net : msg Network.t;
  c_self : Address.t;
  c_proxy_addresses : Address.t array;
  c_proxy_keys : Sign.public_key array;
  c_server_keys : Sign.public_key array;
  nonce_source : Nonce.source;
  callbacks : (string, string -> unit) Hashtbl.t;
  mutable c_accepted : int;
  mutable c_rejected : int;
}

let new_client t ~name =
  let self = Network.register t.front ~name ~handler:(fun ~src:_ _ -> ()) in
  let client =
    {
      c_net = t.front;
      c_self = self;
      c_proxy_addresses = Array.map (fun p -> p.p_self) t.proxies;
      c_proxy_keys = Array.map (fun p -> Sign.public_of_secret p.p_secret) t.proxies;
      c_server_keys = Array.map Smr.public_key (Smr_deployment.replicas t.tier);
      nonce_source = Nonce.source (Prng.split (Engine.prng (engine t)));
      callbacks = Hashtbl.create 16;
      c_accepted = 0;
      c_rejected = 0;
    }
  in
  Network.set_handler t.front self (fun ~src:_ msg ->
      match msg with
      | Client_reply { reply; proxy_index; proxy_signature } ->
          let proxy_ok =
            proxy_index >= 0
            && proxy_index < Array.length client.c_proxy_keys
            && Sign.verify
                 client.c_proxy_keys.(proxy_index)
                 ~msg:(over_sign_payload ~reply ~proxy_index)
                 proxy_signature
          in
          let server_ok =
            reply.Smr.server_index >= 0
            && reply.Smr.server_index < Array.length client.c_server_keys
            && Smr.verify_reply client.c_server_keys.(reply.Smr.server_index) reply
          in
          if proxy_ok && server_ok then (
            match Hashtbl.find_opt client.callbacks reply.Smr.request_id with
            | Some k ->
                Hashtbl.remove client.callbacks reply.Smr.request_id;
                client.c_accepted <- client.c_accepted + 1;
                k reply.Smr.response
            | None -> () (* duplicate from another proxy *))
          else client.c_rejected <- client.c_rejected + 1
      | Client_request _ -> ());
  client

let submit c ~cmd ~on_response =
  let id = Nonce.to_string (Nonce.fresh c.nonce_source) in
  Hashtbl.replace c.callbacks id on_response;
  Array.iter
    (fun dst ->
      Network.send c.c_net ~src:c.c_self ~dst (Client_request { id; cmd; client = c.c_self }))
    c.c_proxy_addresses;
  id

let client_accepted c = c.c_accepted
let client_rejected c = c.c_rejected

(* ---- obfuscation ---- *)

let rekey_proxies t =
  assign_proxy_keys t.tier t.cfg.tier.Smr_deployment.keyspace (Engine.prng (engine t))
    t.proxy_instances;
  Array.iter (fun p -> p.p_compromised <- false) t.proxies

let recover_proxies t =
  Array.iter Instance.recover t.proxy_instances;
  Array.iter (fun p -> p.p_compromised <- false) t.proxies

let obfuscate t ~mode ~period =
  ignore
    (Obfuscation.start (engine t) ~mode ~period (fun _ ->
         match mode with Obfuscation.PO -> rekey_proxies t | Obfuscation.SO -> recover_proxies t));
  ignore (Smr_deployment.obfuscate t.tier ~mode ~period)

(* ---- compromise bookkeeping ---- *)

let compromise_proxy t i = t.proxies.(i).p_compromised <- true

let system_compromised t =
  Smr_deployment.system_compromised t.tier || Array.for_all (fun p -> p.p_compromised) t.proxies
