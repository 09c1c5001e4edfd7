module Engine = Fortress_sim.Engine
module Address = Fortress_net.Address
module Sign = Fortress_crypto.Sign
module Pb = Fortress_replication.Pb
module Nonce = Fortress_crypto.Nonce
module Event = Fortress_obs.Event

type mode =
  | Via_proxies of Nameserver.record
  | Direct_servers of { addresses : Address.t array; keys : Sign.public_key array }

type request_state = {
  mutable response : string option;
  mutable verified : Pb.reply option;
      (** the last reply value whose server signature checked out: the
          proxies relay one server reply as one immutable value, so its
          other relays need only their proxy signatures checked *)
  on_response : string -> unit;
  span : Fortress_obs.Span.span;  (** open from submit until the first accepted reply *)
}

type t = {
  engine : Fortress_sim.Engine.t;
  mode : mode;
  self : Address.t;
  send : dst:Address.t -> Message.t -> unit;
  retry_period : float;
  max_retries : int;
  nonce_source : Nonce.source;
  requests : (string, request_state) Hashtbl.t;
  mutable accepted : int;
  mutable rejected : int;
  mutable retries : int;
}

let create ?(retry_period = 25.0) ?(max_retries = 10) ~engine ~mode ~self ~send prng =
  if retry_period <= 0.0 then invalid_arg "Client.create: retry_period must be positive";
  if max_retries < 0 then invalid_arg "Client.create: max_retries must be >= 0";
  { engine; mode; self; send; retry_period; max_retries; nonce_source = Nonce.source prng;
    requests = Hashtbl.create 32; accepted = 0; rejected = 0; retries = 0 }

let accepted t = t.accepted
let rejected t = t.rejected
let retries_sent t = t.retries

let outstanding t =
  Hashtbl.fold (fun _ r acc -> if r.response = None then acc + 1 else acc) t.requests 0

let response_for t ~id =
  match Hashtbl.find_opt t.requests id with Some r -> r.response | None -> None

let transmit t ~id ~cmd =
  match t.mode with
  | Via_proxies record ->
      Array.iter
        (fun dst -> t.send ~dst (Message.Client_request { id; cmd; client = t.self }))
        record.Nameserver.proxy_addresses
  | Direct_servers { addresses; _ } ->
      Array.iter
        (fun dst -> t.send ~dst (Message.Server (Pb.Request { id; cmd; reply_to = t.self })))
        addresses

let submit t ~cmd ~on_response =
  let id = Nonce.to_string (Nonce.fresh t.nonce_source) in
  let span = Engine.span t.engine "client.request" in
  Fortress_obs.Span.set_attr span "id" id;
  Hashtbl.replace t.requests id { response = None; verified = None; on_response; span };
  Engine.emit t.engine (Event.Request_submitted { id });
  (* the open request span is ambient around every (re)transmission, so
     all net.send spans of a request parent to it in the causal tree; the
     closure only exists when a context is attached, so the causal-free
     submit path allocates nothing extra *)
  (match Engine.causal t.engine with
  | None -> transmit t ~id ~cmd
  | Some _ -> Engine.causal_ambient t.engine span (fun () -> transmit t ~id ~cmd));
  (* requests are idempotent end to end, so retry until answered *)
  let rec arm_retry remaining =
    if remaining > 0 then
      ignore
        (Fortress_sim.Engine.schedule t.engine ~delay:t.retry_period (fun () ->
             match Hashtbl.find_opt t.requests id with
             | Some r when r.response = None ->
                 t.retries <- t.retries + 1;
                 (match Engine.causal t.engine with
                 | None -> transmit t ~id ~cmd
                 | Some _ ->
                     Engine.causal_ambient t.engine r.span (fun () -> transmit t ~id ~cmd));
                 arm_retry (remaining - 1)
             | Some _ | None -> ()))
  in
  arm_retry t.max_retries;
  id

let server_key_for t server_index =
  let keys =
    match t.mode with
    | Via_proxies record -> record.Nameserver.server_keys
    | Direct_servers { keys; _ } -> keys
  in
  if server_index >= 0 && server_index < Array.length keys then Some keys.(server_index)
  else None

let deliver t request (reply : Pb.reply) =
  match request with
  | None -> ()
  | Some r -> (
      match r.response with
      | Some _ -> () (* duplicate authenticated reply *)
      | None ->
          r.response <- Some reply.Pb.response;
          t.accepted <- t.accepted + 1;
          Engine.finish_span t.engine r.span;
          Engine.emit t.engine
            (Event.Request_completed { id = reply.Pb.request_id; accepted = true });
          r.on_response reply.Pb.response)

let server_signed t request (reply : Pb.reply) =
  match request with
  | Some { verified = Some v; _ } when v == reply -> true
  | _ ->
      let ok =
        match server_key_for t reply.Pb.server_index with
        | Some pk -> Pb.verify_reply pk reply
        | None -> false
      in
      (match request with Some r when ok -> r.verified <- Some reply | _ -> ());
      ok

let reject t (reply : Pb.reply) =
  t.rejected <- t.rejected + 1;
  Engine.emit t.engine (Event.Reply_rejected { id = reply.Pb.request_id })

let handle_doubly_signed t ~reply ~proxy_index ~proxy_signature =
  match t.mode with
  | Direct_servers _ -> reject t reply
  | Via_proxies record ->
      let proxy_ok =
        proxy_index >= 0
        && proxy_index < Array.length record.Nameserver.proxy_keys
        && Sign.verify
             record.Nameserver.proxy_keys.(proxy_index)
             ~msg:(Message.over_sign_payload ~reply ~proxy_index)
             proxy_signature
      in
      let request = Hashtbl.find_opt t.requests reply.Pb.request_id in
      let server_ok = server_signed t request reply in
      if proxy_ok && server_ok then deliver t request reply else reject t reply

let handle_direct t (reply : Pb.reply) =
  match t.mode with
  | Via_proxies _ ->
      (* a fortified client never accepts a singly-signed reply *)
      reject t reply
  | Direct_servers _ -> (
      match server_key_for t reply.Pb.server_index with
      | Some pk when Pb.verify_reply pk reply ->
          deliver t (Hashtbl.find_opt t.requests reply.Pb.request_id) reply
      | Some _ | None -> reject t reply)

let handle t ~src:_ msg =
  match msg with
  | Message.Client_reply { reply; proxy_index; proxy_signature } ->
      handle_doubly_signed t ~reply ~proxy_index ~proxy_signature
  | Message.Server (Pb.Reply reply) -> handle_direct t reply
  | Message.Server _ | Message.Client_request _ -> ()
