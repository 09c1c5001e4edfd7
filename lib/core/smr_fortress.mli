(** FORTRESS with an SMR server tier.

    The architecture separates surviving attacks from service replication:
    the fortified tier "may not even be replicated; if replicated, it can
    be by PB or SMR" (paper section 1). This module is the SMR variant:
    np proxies in front of an {!Smr_deployment}, an n = 3f + 1
    Byzantine-agreement tier. Clients reach the proxies over a front
    network of their own; each proxy keeps one node on the tier's network,
    votes over the replicas' signed replies ([f + 1] matching) and
    over-signs one representative reply to relay it. The client needs
    only the usual two authentic signatures, so the client protocol is
    identical to the primary-backup variant — replication is invisible
    behind the proxies, as in Saidane et al.

    The tier is a whole {!Smr_deployment}, reached through {!tier}: its
    diverse replica keys, batched Roeder-Schneider obfuscation daemon,
    crash/restart faults, telemetry and compromise bookkeeping are the S0
    stack's own. This module adds only the proxies and their keys, which
    are drawn distinct from each other and from every current replica key
    (np + n keys in use). The tier's batch rekeys check only against
    replica keys, so a replica rekeyed after the proxies may land on a
    proxy's key; the tier stays unaware of the proxies. *)

type msg =
  | Client_request of { id : string; cmd : string; client : Fortress_net.Address.t }
  | Client_reply of {
      reply : Fortress_replication.Smr.reply;
      proxy_index : int;
      proxy_signature : Fortress_crypto.Sign.signature;
    }
      (** The front network's messages; the proxies speak
          {!Fortress_replication.Smr.msg} to the tier. *)

val over_sign_payload : reply:Fortress_replication.Smr.reply -> proxy_index:int -> string

type config = {
  tier : Smr_deployment.config;
      (** the replica tier; its latency also serves the front network and
          its keyspace the proxies *)
  np : int;
  proxy_detection_window : float;
  proxy_detection_threshold : int;
}

val default_config : config
(** np = 3 proxies over {!Smr_deployment.default_config} (n = 4 / f = 1,
    kv service, chi = 2^16). *)

type t

val create : config -> t
val engine : t -> Fortress_sim.Engine.t

val tier : t -> Smr_deployment.t
(** The replica tier behind the proxies. *)

val proxy_instances : t -> Fortress_defense.Instance.t array
val proxy_invalid_observed : t -> int -> int
val proxy_is_blocked : t -> int -> Fortress_net.Address.t -> bool
val proxy_relayed : t -> int -> int

type client

val new_client : t -> name:string -> client
val submit : client -> cmd:string -> on_response:(string -> unit) -> string
(** [on_response] fires once, on the first reply carrying a valid proxy
    over-signature on a validly server-signed reply. *)

val client_accepted : client -> int
val client_rejected : client -> int

(** {1 Obfuscation} *)

val rekey_proxies : t -> unit
(** Fresh keys for all proxies, distinct from each other and from every
    current replica key (instant — proxies are stateless). *)

val obfuscate : t -> mode:Obfuscation.mode -> period:float -> unit
(** Each period the proxies rekey (PO) or recover (SO) at the boundary,
    then the tier's own daemon ({!Smr_deployment.obfuscate}) cycles its
    batches inside the step, at most [f] at a time. The proxies' boundary
    is armed first, so at a shared instant the proxies move before the
    tier's first batch. *)

(** {1 Compromise bookkeeping} *)

val compromise_proxy : t -> int -> unit

val system_compromised : t -> bool
(** More than [f] replicas compromised ({!Smr_deployment.compromise} on
    {!tier}), or all proxies. A single intruded replica is {e tolerated}
    here — the vote masks it — which is precisely what the PB tier cannot
    offer. *)
