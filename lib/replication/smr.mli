(** State machine replication with Byzantine agreement (the paper's S0).

    A leader-based three-phase ordering protocol in the PBFT mould for
    n = 3f + 1 replicas: the view-[v] leader (replica [v mod n]) assigns
    sequence numbers in pre-prepare messages; replicas broadcast prepare
    and then commit votes; an entry executes once it is committed locally
    and all lower sequence numbers have executed. Replicas checkpoint every
    [checkpoint_interval] executions, and a recovering replica restores
    state from [f + 1] matching peer snapshots. Requests that sit
    unexecuted past [request_timeout] trigger a view change; the new leader
    re-proposes unexecuted requests (duplicate suppression is by request
    id).

    Unlike {!Pb}, every replica executes every command with {e its own}
    entropy — SMR is correct only for deterministic services, which is the
    paper's point: run the [lottery] service here and replicas diverge
    (visible in checkpoint digests and failed client votes).

    Clients must vote over replies: {!Voter} accepts a response once
    [f + 1] validly signed, matching replies from distinct replicas
    arrive. *)

type config = {
  n : int;  (** number of replicas; must equal [3 * f + 1] *)
  f : int;  (** tolerated faulty replicas *)
  checkpoint_interval : int;
  request_timeout : float;
  watchdog_period : float;  (** how often pending requests are re-checked *)
}

val default_config : config
(** n = 4, f = 1, checkpoint every 16, request timeout 30.0,
    watchdog 10.0. *)

type reply = {
  request_id : string;
  response : string;
  server_index : int;
  view : int;
  signature : Fortress_crypto.Sign.signature;
}

type msg =
  | Request of { id : string; cmd : string; reply_to : Fortress_net.Address.t }
  | Preprepare of {
      view : int;
      seq : int;
      id : string;
      cmd : string;
      reply_to : Fortress_net.Address.t;
    }
  | Prepare of { view : int; seq : int; digest : string; index : int }
  | Commit of { view : int; seq : int; digest : string; index : int }
  | Reply of reply
  | Checkpoint of { seq : int; digest : string; index : int }
  | Viewchange of { new_view : int; last_exec : int; index : int }
  | Newview of { view : int }
  | State_req of { reply_to : Fortress_net.Address.t }
  | State_resp of { seq : int; snapshot : string; index : int }

val reply_payload : id:string -> response:string -> server_index:int -> view:int -> string
val verify_reply : Fortress_crypto.Sign.public_key -> reply -> bool

val request_digest : id:string -> cmd:string -> string
(** The SHA-256 of [id ^ "|" ^ cmd]: what prepare and commit votes name. *)

type replica

val create :
  engine:Fortress_sim.Engine.t ->
  config:config ->
  index:int ->
  service:Dsm.t ->
  secret:Fortress_crypto.Sign.secret_key ->
  self:Fortress_net.Address.t ->
  addresses:Fortress_net.Address.t array ->
  send:(dst:Fortress_net.Address.t -> msg -> unit) ->
  replica

val start : replica -> unit
val stop : replica -> unit
val restart : replica -> unit
(** Rejoin with state intact. *)

val crash : replica -> unit
(** Crash with amnesia: like {!stop} but all volatile ordering and service
    state is lost; rejoin with {!restart} followed by
    {!begin_state_transfer}. *)

val begin_state_transfer : replica -> unit
(** Rejoin after losing state (proactive recovery wipes the process):
    request snapshots from peers and install the [f + 1]-matching one. The
    replica ignores ordering messages until the transfer completes. *)

val handle : replica -> src:Fortress_net.Address.t -> msg -> unit

val index : replica -> int
val view : replica -> int
val is_leader : replica -> bool
val alive : replica -> bool
val last_executed : replica -> int
val executed_count : replica -> int
val service_digest : replica -> string
val service_snapshot : replica -> string
val public_key : replica -> Fortress_crypto.Sign.public_key
val stable_checkpoint : replica -> int
val in_state_transfer : replica -> bool

val set_compromised : replica -> bool -> unit
(** The intruder holds the replica's signing key and substitutes its own
    responses; agreement-phase messages still follow the protocol (a
    stealthy intruder), so the system stays live and the client vote is the
    only defence. *)

val compromised : replica -> bool

module Voter : sig
  (** Client-side reply collection: accept once [f + 1] matching, validly
      signed replies from distinct replicas arrive. *)

  type t

  val create : f:int -> public_keys:Fortress_crypto.Sign.public_key array -> t

  val offer : t -> reply -> string option
  (** Feed a reply; [Some response] once the request's vote first reaches
      [f + 1] matching valid replies (subsequent replies return [None]
      again). Invalid signatures and out-of-range indices are ignored. *)

  val decided : t -> id:string -> string option
end
