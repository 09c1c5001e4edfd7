module Engine = Fortress_sim.Engine
module Address = Fortress_net.Address
module Sign = Fortress_crypto.Sign
module Event = Fortress_obs.Event

type config = {
  ns : int;
  heartbeat_period : float;
  suspect_timeout : float;
  ack_quorum : int;
  ack_timeout : float;
  persist_interval : int;
}

let default_config =
  { ns = 3; heartbeat_period = 5.0; suspect_timeout = 20.0; ack_quorum = 1;
    ack_timeout = 30.0; persist_interval = 8 }

type reply = {
  request_id : string;
  response : string;
  server_index : int;
  signature : Sign.signature;
}

type msg =
  | Request of { id : string; cmd : string; reply_to : Address.t }
  | Update of {
      view : int;
      seq : int;
      id : string;
      cmd : string;
      entropy : int64;
      reply_to : Address.t;
      response : string;
    }
  | Update_ack of { seq : int; index : int }
  | Heartbeat of { view : int }
  | Reply of reply
  | Sync_req of { index : int }
  | Sync_resp of {
      view : int;
      seq : int;
      executed : (string * string) list;
      snapshot : string;
    }

let reply_payload ~id ~response ~server_index =
  let module P = Fortress_crypto.Payload in
  let p =
    P.create "pb-reply" ~fields:(P.str_width id + P.str_width response + P.int_width server_index)
  in
  P.add_str p id;
  P.add_str p response;
  P.add_int p server_index;
  P.contents p

let verify_reply pk (r : reply) =
  Sign.verify pk
    ~msg:(reply_payload ~id:r.request_id ~response:r.response ~server_index:r.server_index)
    r.signature

(* An update the primary has executed but not yet fully acknowledged. *)
type in_progress = {
  ip_seq : int;
  ip_id : string;
  ip_response : string;
  mutable ip_waiters : Address.t list;
  mutable ip_acks : int list;  (** backup indices that acked *)
  mutable ip_done : bool;
}

type replica = {
  engine : Engine.t;
  config : config;
  rep_index : int;
  service : Dsm.Instance.instance;
  secret : Sign.secret_key;
  pk : Sign.public_key;
  self : Address.t;
  addresses : Address.t array;
  send : dst:Address.t -> msg -> unit;
  executed : (string, string) Hashtbl.t;  (** request id -> response *)
  in_progress : (string, in_progress) Hashtbl.t;
  buffered_requests : (string, string * Address.t) Hashtbl.t;
      (** seen at a backup, not yet executed: id -> (cmd, reply_to) *)
  pending_updates : (int, msg) Hashtbl.t;  (** out-of-order updates by seq *)
  mutable rep_view : int;
  mutable seq : int;  (** last sequence number assigned/applied *)
  mutable last_heartbeat : float;
  mutable rep_alive : bool;
  mutable started : bool;
  mutable rep_syncing : bool;
  mutable timers : Engine.handle list;
  mutable rep_compromised : bool;
  persistence : persistence option;
  mutable applies_since_snapshot : int;
}

and persistence = { store : Storage.t; wal : Storage.Log.t }

let create ?storage ~engine ~config ~index ~service ~secret ~self ~addresses send =
  if config.ns < 1 then invalid_arg "Pb.create: ns must be >= 1";
  if config.persist_interval < 1 then invalid_arg "Pb.create: persist_interval must be >= 1";
  if Array.length addresses <> config.ns then invalid_arg "Pb.create: addresses size mismatch";
  if index < 0 || index >= config.ns then invalid_arg "Pb.create: bad index";
  if not (Address.equal addresses.(index) self) then
    invalid_arg "Pb.create: self address mismatch";
  {
    engine;
    config;
    rep_index = index;
    service = Dsm.Instance.create service;
    secret;
    pk = Sign.public_of_secret secret;
    self;
    addresses;
    send;
    executed = Hashtbl.create 64;
    in_progress = Hashtbl.create 16;
    buffered_requests = Hashtbl.create 16;
    pending_updates = Hashtbl.create 16;
    rep_view = 0;
    seq = 0;
    last_heartbeat = 0.0;
    rep_alive = false;
    started = false;
    rep_syncing = false;
    timers = [];
    rep_compromised = false;
    persistence =
      Option.map
        (fun store -> { store; wal = Storage.Log.attach store ~name:(string_of_int index) })
        storage;
    applies_since_snapshot = 0;
  }

let index t = t.rep_index
let view t = t.rep_view
let primary_index t = t.rep_view mod t.config.ns
let is_primary t = primary_index t = t.rep_index
let alive t = t.rep_alive
let applied_seq t = t.seq
let executed_count t = Hashtbl.length t.executed
let service_digest t = Dsm.Instance.digest t.service
let service_snapshot t = Dsm.Instance.snapshot t.service
let public_key t = t.pk
let set_compromised t v = t.rep_compromised <- v
let compromised t = t.rep_compromised

let signed_reply t ~id ~response =
  let payload = reply_payload ~id ~response ~server_index:t.rep_index in
  { request_id = id; response; server_index = t.rep_index; signature = Sign.sign t.secret payload }

let send_reply t ~id ~response ~to_ = t.send ~dst:to_ (Reply (signed_reply t ~id ~response))

let backups t = List.init t.config.ns Fun.id |> List.filter (fun i -> i <> primary_index t)

(* ---- persistence ----
   Wire formats use 0x01 as field separator and 0x02 as record separator;
   service commands, request ids and responses never contain them. *)

let field_sep = '\x01'
let record_sep = '\x02'
let snapshot_key = "pb-snapshot"

let encode_wal_entry ~seq ~id ~cmd ~entropy ~response =
  String.concat (String.make 1 field_sep)
    [ string_of_int seq; id; cmd; Int64.to_string entropy; response ]

let decode_wal_entry s =
  match String.split_on_char field_sep s with
  | [ seq; id; cmd; entropy; response ] -> (
      match (int_of_string_opt seq, Int64.of_string_opt entropy) with
      | Some seq, Some entropy -> Some (seq, id, cmd, entropy, response)
      | _ -> None)
  | _ -> None

let write_snapshot t p =
  t.applies_since_snapshot <- 0;
  let executed =
    Hashtbl.fold (fun id r acc -> (id ^ String.make 1 field_sep ^ r) :: acc) t.executed []
  in
  let payload =
    String.concat (String.make 1 record_sep)
      (string_of_int t.seq :: string_of_int t.rep_view :: Dsm.Instance.snapshot t.service
      :: executed)
  in
  Storage.write p.store ~key:snapshot_key payload;
  Storage.Log.truncate p.wal

let persist_apply t ~seq ~id ~cmd ~entropy ~response =
  match t.persistence with
  | None -> ()
  | Some p ->
      Storage.Log.append p.wal (encode_wal_entry ~seq ~id ~cmd ~entropy ~response);
      t.applies_since_snapshot <- t.applies_since_snapshot + 1;
      if t.applies_since_snapshot >= t.config.persist_interval then write_snapshot t p

let decode_snapshot payload =
  match String.split_on_char record_sep payload with
  | seq :: view :: snapshot :: executed -> (
      match (int_of_string_opt seq, int_of_string_opt view) with
      | Some seq, Some view ->
          let table =
            List.filter_map
              (fun entry ->
                match String.split_on_char field_sep entry with
                | [ id; response ] -> Some (id, response)
                | _ -> None)
              executed
          in
          Some (seq, view, snapshot, table)
      | _ -> None)
  | _ -> None

let persisted_seq t =
  match t.persistence with
  | None -> -1
  | Some p ->
      let base =
        match Option.bind (Storage.read p.store ~key:snapshot_key) decode_snapshot with
        | Some (seq, _, _, _) -> seq
        | None -> 0
      in
      List.fold_left
        (fun acc entry ->
          match decode_wal_entry entry with Some (seq, _, _, _, _) -> max acc seq | None -> acc)
        base
        (Storage.Log.entries p.wal)

(* ---- primary behaviour ---- *)

let complete t ip =
  if not ip.ip_done then begin
    ip.ip_done <- true;
    Hashtbl.replace t.executed ip.ip_id ip.ip_response;
    Hashtbl.remove t.in_progress ip.ip_id;
    (* one signed reply value serves every waiting proxy *)
    let reply = Reply (signed_reply t ~id:ip.ip_id ~response:ip.ip_response) in
    List.iter (fun w -> t.send ~dst:w reply) ip.ip_waiters
  end

let execute_as_primary t ~id ~cmd ~reply_to =
  t.seq <- t.seq + 1;
  let entropy = Fortress_util.Prng.bits64 (Engine.prng t.engine) in
  let response = Dsm.Instance.apply t.service ~entropy cmd in
  (* an intruded primary controls execution: the poisoned response flows
     into the state update, so even honest backups attest to it — this is
     exactly why compromising the primary compromises S1/S2 *)
  let response = if t.rep_compromised then "pwned:" ^ response else response in
  let ip =
    { ip_seq = t.seq; ip_id = id; ip_response = response; ip_waiters = [ reply_to ];
      ip_acks = []; ip_done = false }
  in
  Hashtbl.replace t.in_progress id ip;
  persist_apply t ~seq:t.seq ~id ~cmd ~entropy ~response;
  let update =
    Update { view = t.rep_view; seq = t.seq; id; cmd; entropy; reply_to; response }
  in
  List.iter (fun i -> t.send ~dst:t.addresses.(i) update) (backups t);
  let need = min t.config.ack_quorum (t.config.ns - 1) in
  if need <= 0 then complete t ip
  else
    (* availability fallback: reply even if backups are gone *)
    ignore
      (Engine.schedule t.engine ~delay:t.config.ack_timeout (fun () ->
           if t.rep_alive && not ip.ip_done then begin
             Engine.emit t.engine
               (Event.Repl
                  {
                    proto = "pb";
                    kind = "ack_timeout";
                    detail = Printf.sprintf "seq=%d" ip.ip_seq;
                  });
             complete t ip
           end))

let handle_request t ~id ~cmd ~reply_to =
  match Hashtbl.find_opt t.executed id with
  | Some response -> send_reply t ~id ~response ~to_:reply_to
  | None ->
      if is_primary t then begin
        match Hashtbl.find_opt t.in_progress id with
        | Some ip -> if not (List.mem reply_to ip.ip_waiters) then ip.ip_waiters <- reply_to :: ip.ip_waiters
        | None -> execute_as_primary t ~id ~cmd ~reply_to
      end
      else Hashtbl.replace t.buffered_requests id (cmd, reply_to)

(* ---- backup behaviour ---- *)

let rec apply_ready_updates t =
  match Hashtbl.find_opt t.pending_updates (t.seq + 1) with
  | Some (Update { view = _; seq; id; cmd; entropy; reply_to; response }) ->
      Hashtbl.remove t.pending_updates (t.seq + 1);
      t.seq <- seq;
      let local_response = Dsm.Instance.apply t.service ~entropy cmd in
      if local_response <> response then
        Engine.emit t.engine
          (Event.Repl
             {
               proto = "pb";
               kind = "divergence";
               detail = Printf.sprintf "replica %d: response divergence on %s" t.rep_index id;
             });
      Hashtbl.replace t.executed id response;
      Hashtbl.remove t.buffered_requests id;
      persist_apply t ~seq ~id ~cmd ~entropy ~response;
      t.send ~dst:t.addresses.(primary_index t) (Update_ack { seq; index = t.rep_index });
      (* the paper's protocol: each server signs the PRIMARY's response and
         returns it — the primary is authoritative, backups attest *)
      send_reply t ~id ~response ~to_:reply_to;
      apply_ready_updates t
  | Some _ | None -> ()

(* A view increase means the primary lineage changed: updates this backup
   applied from the dead primary may never have reached the new one, so the
   safe move is to resync from the new primary's authoritative state. *)
let resync_on_view_change t view =
  if view > t.rep_view then begin
    t.rep_view <- view;
    if not (is_primary t) && not t.rep_syncing then begin
      t.rep_syncing <- true;
      t.send ~dst:t.addresses.(primary_index t) (Sync_req { index = t.rep_index });
      ignore
        (Engine.schedule t.engine ~delay:t.config.suspect_timeout (fun () ->
             if t.rep_alive && t.rep_syncing then begin
               t.rep_syncing <- false;
               t.last_heartbeat <- Engine.now t.engine
             end))
    end
  end

let handle_update t ~view ~seq ~id ~cmd ~entropy ~reply_to ~response =
  resync_on_view_change t view;
  if seq > t.seq && not (Hashtbl.mem t.pending_updates seq) then begin
    Hashtbl.replace t.pending_updates seq
      (Update { view; seq; id; cmd; entropy; reply_to; response });
    if not t.rep_syncing then apply_ready_updates t
  end

let handle_ack t ~seq ~index:backup_index =
  let needed = min t.config.ack_quorum (t.config.ns - 1) in
  Hashtbl.iter
    (fun _ ip ->
      if ip.ip_seq = seq && not (List.mem backup_index ip.ip_acks) then begin
        ip.ip_acks <- backup_index :: ip.ip_acks;
        if List.length ip.ip_acks >= needed then complete t ip
      end)
    t.in_progress

(* ---- view management ---- *)

let become_primary t =
  Engine.emit t.engine
    (Event.Failover { proto = "pb"; replica = t.rep_index; view = t.rep_view });
  (* execute everything buffered and not yet known executed *)
  let pending = Hashtbl.fold (fun id (cmd, rt) acc -> (id, cmd, rt) :: acc) t.buffered_requests [] in
  Hashtbl.reset t.buffered_requests;
  List.iter
    (fun (id, cmd, reply_to) ->
      if not (Hashtbl.mem t.executed id) then handle_request t ~id ~cmd ~reply_to)
    pending

let check_suspicion t =
  if t.rep_alive && not (is_primary t) then begin
    let elapsed = Engine.now t.engine -. t.last_heartbeat in
    if elapsed > t.config.suspect_timeout then begin
      t.rep_view <- t.rep_view + 1;
      t.last_heartbeat <- Engine.now t.engine;
      Engine.emit t.engine
        (Event.Repl
           {
             proto = "pb";
             kind = "suspect";
             detail =
               Printf.sprintf "replica %d suspects primary; moves to view %d" t.rep_index
                 t.rep_view;
           });
      if is_primary t then become_primary t
    end
  end

let handle_heartbeat t ~view =
  if view >= t.rep_view then begin
    resync_on_view_change t view;
    t.last_heartbeat <- Engine.now t.engine
  end

(* ---- rejoin ---- *)

let handle_sync_req t ~index:requester =
  if is_primary t && requester >= 0 && requester < t.config.ns && requester <> t.rep_index then
    t.send ~dst:t.addresses.(requester)
      (Sync_resp
         {
           view = t.rep_view;
           seq = t.seq;
           executed = Hashtbl.fold (fun id r acc -> (id, r) :: acc) t.executed [];
           snapshot = Dsm.Instance.snapshot t.service;
         })

let handle_sync_resp t ~view ~seq ~executed ~snapshot =
  if t.rep_syncing then begin
    t.rep_syncing <- false;
    t.rep_view <- max t.rep_view view;
    t.seq <- seq;
    Dsm.Instance.restore t.service snapshot;
    Hashtbl.reset t.executed;
    List.iter (fun (id, r) -> Hashtbl.replace t.executed id r) executed;
    (* drop updates the snapshot already covers, keep newer buffered ones *)
    Hashtbl.iter
      (fun s _ -> if s <= seq then Hashtbl.remove t.pending_updates s)
      (Hashtbl.copy t.pending_updates);
    t.last_heartbeat <- Engine.now t.engine;
    (* bring stable storage in line with the installed state *)
    Option.iter (fun p -> write_snapshot t p) t.persistence;
    Engine.emit t.engine
      (Event.Repl
         {
           proto = "pb";
           kind = "sync";
           detail =
             Printf.sprintf "replica %d synced to seq %d (view %d)" t.rep_index seq t.rep_view;
         });
    apply_ready_updates t
  end

let handle t ~src:_ msg =
  if t.rep_alive then
    match msg with
    | Sync_resp { view; seq; executed; snapshot } ->
        handle_sync_resp t ~view ~seq ~executed ~snapshot
    | Update { view; seq; id; cmd; entropy; reply_to; response } ->
        (* buffered even while syncing; applied once contiguous *)
        handle_update t ~view ~seq ~id ~cmd ~entropy ~reply_to ~response
    | _ when t.rep_syncing -> ()
    | Request { id; cmd; reply_to } -> handle_request t ~id ~cmd ~reply_to
    | Update_ack { seq; index } -> if is_primary t then handle_ack t ~seq ~index
    | Heartbeat { view } -> handle_heartbeat t ~view
    | Sync_req { index } -> handle_sync_req t ~index
    | Reply _ -> ()

let start t =
  if not t.started then begin
    t.started <- true;
    t.rep_alive <- true;
    t.last_heartbeat <- Engine.now t.engine;
    let hb =
      Engine.every t.engine ~period:t.config.heartbeat_period (fun () ->
          if t.rep_alive && is_primary t then
            List.iter
              (fun i -> t.send ~dst:t.addresses.(i) (Heartbeat { view = t.rep_view }))
              (backups t))
    in
    let suspect =
      Engine.every t.engine ~period:(t.config.suspect_timeout /. 2.0) (fun () ->
          check_suspicion t)
    in
    t.timers <- [ hb; suspect ]
  end
  else t.rep_alive <- true

let stop t = t.rep_alive <- false
let syncing t = t.rep_syncing

(* A crash, unlike [stop], loses volatile state: the service memory image,
   the dedup table and everything buffered or in flight. Only the view
   number survives (it is re-learned from heartbeats anyway, keeping it
   avoids a spurious extra view change on restart). *)
let crash t =
  t.rep_alive <- false;
  t.rep_syncing <- false;
  Dsm.Instance.reset t.service;
  Hashtbl.reset t.executed;
  Hashtbl.reset t.in_progress;
  Hashtbl.reset t.buffered_requests;
  Hashtbl.reset t.pending_updates;
  t.seq <- 0;
  t.applies_since_snapshot <- 0

let restart t =
  t.rep_alive <- true;
  t.last_heartbeat <- Engine.now t.engine;
  t.rep_syncing <- true;
  List.iter
    (fun i ->
      if i <> t.rep_index then t.send ~dst:t.addresses.(i) (Sync_req { index = t.rep_index }))
    (List.init t.config.ns Fun.id);
  (* if nobody answers (e.g. we are the only live replica), resume on our
     own state rather than staying mute forever *)
  ignore
    (Engine.schedule t.engine ~delay:t.config.suspect_timeout (fun () ->
         if t.rep_alive && t.rep_syncing then begin
           t.rep_syncing <- false;
           t.last_heartbeat <- Engine.now t.engine;
           Engine.emit t.engine
             (Event.Repl
                {
                  proto = "pb";
                  kind = "sync_timeout";
                  detail =
                    Printf.sprintf "replica %d sync timed out; resuming on local state"
                      t.rep_index;
                })
         end))

(* Reboot after losing volatile state: reload the last snapshot, replay the
   intact write-ahead-log prefix, then rejoin normally — the network sync
   reconciles anything the log missed. *)
let restart_from_storage t =
  match t.persistence with
  | None -> false
  | Some p -> (
      match Option.bind (Storage.read p.store ~key:snapshot_key) decode_snapshot with
      | None -> false
      | Some (seq, view, snapshot, executed) ->
          (* the reboot wiped memory *)
          Dsm.Instance.reset t.service;
          Hashtbl.reset t.executed;
          Hashtbl.reset t.in_progress;
          Hashtbl.reset t.buffered_requests;
          Hashtbl.reset t.pending_updates;
          Dsm.Instance.restore t.service snapshot;
          t.seq <- seq;
          t.rep_view <- max t.rep_view view;
          List.iter (fun (id, response) -> Hashtbl.replace t.executed id response) executed;
          List.iter
            (fun entry ->
              match decode_wal_entry entry with
              | Some (eseq, id, cmd, entropy, response) when eseq = t.seq + 1 ->
                  ignore (Dsm.Instance.apply t.service ~entropy cmd);
                  t.seq <- eseq;
                  Hashtbl.replace t.executed id response
              | Some _ | None -> ())
            (Storage.Log.entries p.wal);
          Engine.emit t.engine
            (Event.Repl
               {
                 proto = "pb";
                 kind = "reload";
                 detail =
                   Printf.sprintf "replica %d reloaded seq %d from stable storage" t.rep_index
                     t.seq;
               });
          restart t;
          true)
