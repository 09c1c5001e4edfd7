module Engine = Fortress_sim.Engine
module Address = Fortress_net.Address
module Sign = Fortress_crypto.Sign
module Sha256 = Fortress_crypto.Sha256
module Event = Fortress_obs.Event

type config = {
  n : int;
  f : int;
  checkpoint_interval : int;
  request_timeout : float;
  watchdog_period : float;
}

let default_config =
  { n = 4; f = 1; checkpoint_interval = 16; request_timeout = 30.0; watchdog_period = 10.0 }

type reply = {
  request_id : string;
  response : string;
  server_index : int;
  view : int;
  signature : Sign.signature;
}

type msg =
  | Request of { id : string; cmd : string; reply_to : Address.t }
  | Preprepare of { view : int; seq : int; id : string; cmd : string; reply_to : Address.t }
  | Prepare of { view : int; seq : int; digest : string; index : int }
  | Commit of { view : int; seq : int; digest : string; index : int }
  | Reply of reply
  | Checkpoint of { seq : int; digest : string; index : int }
  | Viewchange of { new_view : int; last_exec : int; index : int }
  | Newview of { view : int }
  | State_req of { reply_to : Address.t }
  | State_resp of { seq : int; snapshot : string; index : int }

let reply_payload ~id ~response ~server_index ~view =
  let module P = Fortress_crypto.Payload in
  let p =
    P.create "smr-reply"
      ~fields:
        (P.str_width id + P.str_width response + P.int_width server_index + P.int_width view)
  in
  P.add_str p id;
  P.add_str p response;
  P.add_int p server_index;
  P.add_int p view;
  P.contents p

let verify_reply pk (r : reply) =
  Sign.verify pk
    ~msg:
      (reply_payload ~id:r.request_id ~response:r.response ~server_index:r.server_index
         ~view:r.view)
    r.signature

module Iset = Set.Make (Int)

type entry = {
  e_view : int;
  e_id : string;
  e_cmd : string;
  e_reply_to : Address.t;
  e_digest : string;
  mutable e_prepares : Iset.t;
  mutable e_commits : Iset.t;
  mutable e_committed : bool;
  mutable e_executed : bool;
}

type pending = { p_cmd : string; p_reply_to : Address.t; p_since : float }

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
  log : (int, entry) Hashtbl.t;  (** seq -> entry *)
  executed : (string, string) Hashtbl.t;  (** request id -> response *)
  pending : (string, pending) Hashtbl.t;  (** awaiting execution *)
  checkpoints : (int, (string, Iset.t) Hashtbl.t) Hashtbl.t;
      (** seq -> digest -> voter set *)
  own_snapshots : (int, string) Hashtbl.t;  (** seq -> snapshot *)
  viewchange_votes : (int, Iset.t ref) Hashtbl.t;  (** new view -> voters *)
  state_votes : (int * string, Iset.t ref) Hashtbl.t;
      (** (seq, digest) -> voter set during state transfer *)
  state_payload : (int * string, string) Hashtbl.t;
  mutable rep_view : int;
  mutable next_seq : int;  (** last seq this leader assigned *)
  mutable last_exec : int;
  mutable stable_checkpoint : int;
  mutable rep_alive : bool;
  mutable started : bool;
  mutable transferring : bool;
  mutable transfer_since : float;
      (** when the current state transfer began; the watchdog re-broadcasts
          [State_req] once a full period has passed without the f+1 match *)
  mutable rep_compromised : bool;
  mutable exec_since_checkpoint : int;
}

let create ~engine ~config ~index ~service ~secret ~self ~addresses ~send =
  if config.n <> (3 * config.f) + 1 then invalid_arg "Smr.create: n must be 3f+1";
  if Array.length addresses <> config.n then invalid_arg "Smr.create: addresses size mismatch";
  if index < 0 || index >= config.n then invalid_arg "Smr.create: bad index";
  if not (Address.equal addresses.(index) self) then invalid_arg "Smr.create: self address mismatch";
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
    log = Hashtbl.create 128;
    executed = Hashtbl.create 128;
    pending = Hashtbl.create 32;
    checkpoints = Hashtbl.create 16;
    own_snapshots = Hashtbl.create 16;
    viewchange_votes = Hashtbl.create 8;
    state_votes = Hashtbl.create 8;
    state_payload = Hashtbl.create 8;
    rep_view = 0;
    next_seq = 0;
    last_exec = 0;
    stable_checkpoint = 0;
    rep_alive = false;
    started = false;
    transferring = false;
    transfer_since = 0.0;
    rep_compromised = false;
    exec_since_checkpoint = 0;
  }

let index t = t.rep_index
let view t = t.rep_view
let leader_index t = t.rep_view mod t.config.n
let is_leader t = leader_index t = t.rep_index
let alive t = t.rep_alive
let last_executed t = t.last_exec
let executed_count t = Hashtbl.length t.executed
let service_digest t = Dsm.Instance.digest t.service
let service_snapshot t = Dsm.Instance.snapshot t.service
let public_key t = t.pk
let stable_checkpoint t = t.stable_checkpoint
let in_state_transfer t = t.transferring
let set_compromised t v = t.rep_compromised <- v
let compromised t = t.rep_compromised

let others t = List.init t.config.n Fun.id |> List.filter (fun i -> i <> t.rep_index)
let broadcast t msg = List.iter (fun i -> t.send ~dst:t.addresses.(i) msg) (others t)
let request_digest ~id ~cmd =
  let module P = Fortress_crypto.Payload in
  let p = P.create id ~fields:(P.str_width cmd) in
  P.add_str p cmd;
  Sha256.digest (P.contents p)

let signed_reply t ~id ~response =
  let response = if t.rep_compromised then "pwned:" ^ response else response in
  let payload = reply_payload ~id ~response ~server_index:t.rep_index ~view:t.rep_view in
  {
    request_id = id;
    response;
    server_index = t.rep_index;
    view = t.rep_view;
    signature = Sign.sign t.secret payload;
  }

(* ---- checkpointing ---- *)

let take_checkpoint t =
  let seq = t.last_exec in
  let snapshot = Dsm.Instance.snapshot t.service in
  Hashtbl.replace t.own_snapshots seq snapshot;
  t.exec_since_checkpoint <- 0;
  let digest = Sha256.digest snapshot in
  broadcast t (Checkpoint { seq; digest; index = t.rep_index });
  (* count our own vote *)
  let by_digest =
    match Hashtbl.find_opt t.checkpoints seq with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.replace t.checkpoints seq h;
        h
  in
  let votes = Option.value ~default:Iset.empty (Hashtbl.find_opt by_digest digest) in
  Hashtbl.replace by_digest digest (Iset.add t.rep_index votes)

let garbage_collect t upto =
  Hashtbl.iter
    (fun seq _ -> if seq < upto then Hashtbl.remove t.log seq)
    (Hashtbl.copy t.log);
  Hashtbl.iter
    (fun seq _ -> if seq < upto then Hashtbl.remove t.checkpoints seq)
    (Hashtbl.copy t.checkpoints);
  Hashtbl.iter
    (fun seq _ -> if seq < upto then Hashtbl.remove t.own_snapshots seq)
    (Hashtbl.copy t.own_snapshots)

let handle_checkpoint t ~seq ~digest ~index:voter =
  let by_digest =
    match Hashtbl.find_opt t.checkpoints seq with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.replace t.checkpoints seq h;
        h
  in
  let votes = Option.value ~default:Iset.empty (Hashtbl.find_opt by_digest digest) in
  let votes = Iset.add voter votes in
  Hashtbl.replace by_digest digest votes;
  if Iset.cardinal votes >= (2 * t.config.f) + 1 && seq > t.stable_checkpoint then begin
    t.stable_checkpoint <- seq;
    garbage_collect t seq
  end

(* ---- execution ---- *)

let rec try_execute t =
  let seq = t.last_exec + 1 in
  match Hashtbl.find_opt t.log seq with
  | Some entry when entry.e_committed && not entry.e_executed ->
      entry.e_executed <- true;
      t.last_exec <- seq;
      let response =
        match Hashtbl.find_opt t.executed entry.e_id with
        | Some r -> r (* duplicate proposal of an already-executed request *)
        | None ->
            (* every replica uses its own entropy: SMR requires determinism *)
            let entropy = Fortress_util.Prng.bits64 (Engine.prng t.engine) in
            let r = Dsm.Instance.apply t.service ~entropy entry.e_cmd in
            Hashtbl.replace t.executed entry.e_id r;
            r
      in
      Hashtbl.remove t.pending entry.e_id;
      t.send ~dst:entry.e_reply_to (Reply (signed_reply t ~id:entry.e_id ~response));
      t.exec_since_checkpoint <- t.exec_since_checkpoint + 1;
      if t.exec_since_checkpoint >= t.config.checkpoint_interval then take_checkpoint t;
      try_execute t
  | Some _ | None -> ()

let check_committed t seq entry =
  if
    (not entry.e_committed)
    && Iset.cardinal entry.e_commits >= (2 * t.config.f) + 1
    && Iset.cardinal entry.e_prepares >= 2 * t.config.f
  then begin
    entry.e_committed <- true;
    ignore seq;
    try_execute t
  end

let send_commit t seq entry =
  let commit = Commit { view = entry.e_view; seq; digest = entry.e_digest; index = t.rep_index } in
  entry.e_commits <- Iset.add t.rep_index entry.e_commits;
  broadcast t commit;
  check_committed t seq entry

let check_prepared t seq entry =
  if Iset.cardinal entry.e_prepares >= 2 * t.config.f && not (Iset.mem t.rep_index entry.e_commits)
  then send_commit t seq entry

(* ---- ordering ---- *)

let insert_entry t ~view ~seq ~id ~cmd ~reply_to =
  let entry =
    {
      e_view = view;
      e_id = id;
      e_cmd = cmd;
      e_reply_to = reply_to;
      e_digest = request_digest ~id ~cmd;
      e_prepares = Iset.empty;
      e_commits = Iset.empty;
      e_committed = false;
      e_executed = false;
    }
  in
  Hashtbl.replace t.log seq entry;
  entry

let propose t ~id ~cmd ~reply_to =
  t.next_seq <- max t.next_seq t.last_exec + 1;
  let seq = t.next_seq in
  let entry = insert_entry t ~view:t.rep_view ~seq ~id ~cmd ~reply_to in
  broadcast t (Preprepare { view = t.rep_view; seq; id; cmd; reply_to });
  (* leader's implicit prepare *)
  entry.e_prepares <- Iset.add t.rep_index entry.e_prepares

let handle_request t ~id ~cmd ~reply_to =
  match Hashtbl.find_opt t.executed id with
  | Some response -> t.send ~dst:reply_to (Reply (signed_reply t ~id ~response))
  | None ->
      if not (Hashtbl.mem t.pending id) then
        Hashtbl.replace t.pending id
          { p_cmd = cmd; p_reply_to = reply_to; p_since = Engine.now t.engine };
      if is_leader t then begin
        let already_proposed =
          Hashtbl.fold (fun _ e acc -> acc || e.e_id = id) t.log false
        in
        if not already_proposed then propose t ~id ~cmd ~reply_to
      end

let handle_preprepare t ~view ~seq ~id ~cmd ~reply_to =
  if view >= t.rep_view && seq > t.last_exec && not (Hashtbl.mem t.log seq) then begin
    if view > t.rep_view then t.rep_view <- view;
    let entry = insert_entry t ~view ~seq ~id ~cmd ~reply_to in
    if not (Hashtbl.mem t.pending id) && not (Hashtbl.mem t.executed id) then
      Hashtbl.replace t.pending id
        { p_cmd = cmd; p_reply_to = reply_to; p_since = Engine.now t.engine };
    let prepare = Prepare { view; seq; digest = entry.e_digest; index = t.rep_index } in
    entry.e_prepares <- Iset.add t.rep_index entry.e_prepares;
    broadcast t prepare;
    check_prepared t seq entry
  end

let handle_prepare t ~view ~seq ~digest ~index:voter =
  match Hashtbl.find_opt t.log seq with
  | Some entry when entry.e_view = view && entry.e_digest = digest ->
      entry.e_prepares <- Iset.add voter entry.e_prepares;
      check_prepared t seq entry
  | Some _ | None -> ()

let handle_commit t ~view ~seq ~digest ~index:voter =
  match Hashtbl.find_opt t.log seq with
  | Some entry when entry.e_view = view && entry.e_digest = digest ->
      entry.e_commits <- Iset.add voter entry.e_commits;
      check_committed t seq entry
  | Some _ | None -> ()

(* ---- view change ---- *)

let adopt_view t new_view =
  t.rep_view <- new_view;
  (* drop uncommitted entries from older views; committed ones stay *)
  Hashtbl.iter
    (fun seq e -> if (not e.e_committed) && e.e_view < new_view then Hashtbl.remove t.log seq)
    (Hashtbl.copy t.log);
  if is_leader t then begin
    Engine.emit t.engine
      (Event.Failover { proto = "smr"; replica = t.rep_index; view = new_view });
    t.next_seq <- Hashtbl.fold (fun seq _ acc -> max acc seq) t.log t.last_exec;
    (* re-propose everything pending and unexecuted *)
    Hashtbl.iter
      (fun id p ->
        if not (Hashtbl.mem t.executed id) then begin
          let already =
            Hashtbl.fold (fun _ e acc -> acc || (e.e_id = id && e.e_view = new_view)) t.log false
          in
          if not already then propose t ~id ~cmd:p.p_cmd ~reply_to:p.p_reply_to
        end)
      (Hashtbl.copy t.pending)
  end

let request_viewchange t new_view =
  let votes =
    match Hashtbl.find_opt t.viewchange_votes new_view with
    | Some v -> v
    | None ->
        let v = ref Iset.empty in
        Hashtbl.replace t.viewchange_votes new_view v;
        v
  in
  if not (Iset.mem t.rep_index !votes) then begin
    votes := Iset.add t.rep_index !votes;
    broadcast t (Viewchange { new_view; last_exec = t.last_exec; index = t.rep_index })
  end

let handle_viewchange t ~new_view ~last_exec:_ ~index:voter =
  if new_view > t.rep_view then begin
    let votes =
      match Hashtbl.find_opt t.viewchange_votes new_view with
      | Some v -> v
      | None ->
          let v = ref Iset.empty in
          Hashtbl.replace t.viewchange_votes new_view v;
          v
    in
    votes := Iset.add voter !votes;
    (* join the view change once f+1 replicas demand it *)
    if Iset.cardinal !votes >= t.config.f + 1 && not (Iset.mem t.rep_index !votes) then
      request_viewchange t new_view;
    if
      Iset.cardinal !votes >= (2 * t.config.f) + 1
      && new_view mod t.config.n = t.rep_index
    then begin
      broadcast t (Newview { view = new_view });
      adopt_view t new_view
    end
  end

let handle_newview t ~view = if view > t.rep_view then adopt_view t view

(* ---- state transfer (recovery rejoin) ---- *)

let begin_state_transfer t =
  t.transferring <- true;
  t.transfer_since <- Engine.now t.engine;
  Hashtbl.reset t.state_votes;
  Hashtbl.reset t.state_payload;
  Dsm.Instance.reset t.service;
  Hashtbl.reset t.log;
  Hashtbl.reset t.executed;
  Hashtbl.reset t.pending;
  t.last_exec <- 0;
  t.exec_since_checkpoint <- 0;
  broadcast t (State_req { reply_to = t.self })

let handle_state_req t ~reply_to =
  t.send ~dst:reply_to
    (State_resp
       { seq = t.last_exec; snapshot = Dsm.Instance.snapshot t.service; index = t.rep_index })

let handle_state_resp t ~seq ~snapshot ~index:voter =
  if t.transferring then begin
    let digest = Sha256.digest snapshot in
    let key = (seq, digest) in
    let votes =
      match Hashtbl.find_opt t.state_votes key with
      | Some v -> v
      | None ->
          let v = ref Iset.empty in
          Hashtbl.replace t.state_votes key v;
          Hashtbl.replace t.state_payload key snapshot;
          v
    in
    votes := Iset.add voter !votes;
    if Iset.cardinal !votes >= t.config.f + 1 then begin
      Dsm.Instance.restore t.service (Hashtbl.find t.state_payload key);
      t.last_exec <- seq;
      t.next_seq <- seq;
      t.stable_checkpoint <- seq;
      t.transferring <- false;
      Engine.emit t.engine
        (Event.Repl
           {
             proto = "smr";
             kind = "restore";
             detail = Printf.sprintf "replica %d restored state at seq %d" t.rep_index seq;
           })
    end
  end

(* ---- dispatch ---- *)

(* A recovering replica's [State_req] is one-shot and its peers answer
   with their live snapshots, so under concurrent load the f+1 match can
   fail (peers caught at different execution points) and, without the
   timers below, the replica would stay [transferring] forever — and a
   wedged replica ignores ordering traffic AND [State_req], so wedges
   cascade until the whole group is silent. Both timers fire only in
   states that were previously permanent wedges: a quiescent group
   completes every transfer within the same instant, keeping fault-free
   traces byte-identical to the timer-free build. *)
let watchdog t =
  let now = Engine.now t.engine in
  if t.rep_alive && t.transferring then begin
    (* the one-shot transfer did not land an f+1 match: re-poll the peers
       (vote sets persist across polls, so any two answers that ever agree
       on (seq, digest) complete the transfer) *)
    if now -. t.transfer_since >= t.config.watchdog_period then begin
      Engine.emit t.engine
        (Event.Repl
           {
             proto = "smr";
             kind = "transfer_retry";
             detail = Printf.sprintf "replica %d re-polling state transfer" t.rep_index;
           });
      broadcast t (State_req { reply_to = t.self })
    end
  end
  else if t.rep_alive then begin
    (* a replica that was recovering while a sequence number committed has
       a permanent gap — [try_execute] only walks contiguously — so it can
       never execute anything newer; detect the gap and re-transfer *)
    let gapped =
      t.stable_checkpoint > t.last_exec
      || (not (Hashtbl.mem t.log (t.last_exec + 1)))
         && Hashtbl.fold
              (fun seq (e : entry) acc -> acc || (e.e_committed && seq > t.last_exec + 1))
              t.log false
    in
    if gapped then begin
      Engine.emit t.engine
        (Event.Repl
           {
             proto = "smr";
             kind = "resync";
             detail =
               Printf.sprintf "replica %d behind (executed %d), re-transferring state"
                 t.rep_index t.last_exec;
           });
      begin_state_transfer t
    end
    else begin
      let stuck =
        Hashtbl.fold
          (fun id p acc ->
            acc
            || ((not (Hashtbl.mem t.executed id)) && now -. p.p_since > t.config.request_timeout))
          t.pending false
      in
      if stuck then begin
        Engine.emit t.engine
          (Event.Repl
             {
               proto = "smr";
               kind = "view_demand";
               detail =
                 Printf.sprintf "replica %d: request timeout, demanding view %d" t.rep_index
                   (t.rep_view + 1);
             });
        (* refresh timers so we do not spam view changes every tick *)
        Hashtbl.iter
          (fun id p ->
            if not (Hashtbl.mem t.executed id) then
              Hashtbl.replace t.pending id { p with p_since = now })
          (Hashtbl.copy t.pending);
        request_viewchange t (t.rep_view + 1)
      end
    end
  end

let handle t ~src:_ msg =
  if t.rep_alive then
    match msg with
    | State_req { reply_to } -> if not t.transferring then handle_state_req t ~reply_to
    | State_resp { seq; snapshot; index } -> handle_state_resp t ~seq ~snapshot ~index
    | _ when t.transferring -> () (* ignore ordering traffic while restoring *)
    | Request { id; cmd; reply_to } -> handle_request t ~id ~cmd ~reply_to
    | Preprepare { view; seq; id; cmd; reply_to } ->
        if leader_index t <> t.rep_index || view > t.rep_view then
          handle_preprepare t ~view ~seq ~id ~cmd ~reply_to
    | Prepare { view; seq; digest; index } -> handle_prepare t ~view ~seq ~digest ~index
    | Commit { view; seq; digest; index } -> handle_commit t ~view ~seq ~digest ~index
    | Checkpoint { seq; digest; index } -> handle_checkpoint t ~seq ~digest ~index
    | Viewchange { new_view; last_exec; index } -> handle_viewchange t ~new_view ~last_exec ~index
    | Newview { view } -> handle_newview t ~view
    | Reply _ -> ()

let start t =
  if not t.started then begin
    t.started <- true;
    t.rep_alive <- true;
    ignore
      (Engine.every t.engine ~period:t.config.watchdog_period (fun () -> watchdog t))
  end
  else t.rep_alive <- true

let stop t = t.rep_alive <- false
let restart t = t.rep_alive <- true

(* Crash with amnesia: volatile ordering state is gone. The replica keeps
   its view number (cheaply re-learned) and rejoins via state transfer. *)
let crash t =
  t.rep_alive <- false;
  t.transferring <- false;
  Dsm.Instance.reset t.service;
  Hashtbl.reset t.log;
  Hashtbl.reset t.executed;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.checkpoints;
  Hashtbl.reset t.own_snapshots;
  Hashtbl.reset t.viewchange_votes;
  Hashtbl.reset t.state_votes;
  Hashtbl.reset t.state_payload;
  t.next_seq <- 0;
  t.last_exec <- 0;
  t.stable_checkpoint <- 0;
  t.exec_since_checkpoint <- 0

module Voter = struct
  type vote = { mutable replies : (int * string) list; mutable result : string option }

  type t = { f : int; public_keys : Sign.public_key array; votes : (string, vote) Hashtbl.t }

  let create ~f ~public_keys = { f; public_keys; votes = Hashtbl.create 32 }

  let offer t (r : reply) =
    if r.server_index < 0 || r.server_index >= Array.length t.public_keys then None
    else if not (verify_reply t.public_keys.(r.server_index) r) then None
    else begin
      let vote =
        match Hashtbl.find_opt t.votes r.request_id with
        | Some v -> v
        | None ->
            let v = { replies = []; result = None } in
            Hashtbl.replace t.votes r.request_id v;
            v
      in
      match vote.result with
      | Some _ -> None
      | None ->
          if List.mem_assoc r.server_index vote.replies then None
          else begin
            vote.replies <- (r.server_index, r.response) :: vote.replies;
            let matching =
              List.length (List.filter (fun (_, resp) -> resp = r.response) vote.replies)
            in
            if matching >= t.f + 1 then begin
              vote.result <- Some r.response;
              Some r.response
            end
            else None
          end
    end

  let decided t ~id =
    match Hashtbl.find_opt t.votes id with Some v -> v.result | None -> None
end
