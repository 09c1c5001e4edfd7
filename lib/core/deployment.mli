(** Assemble a complete FORTRESS system on a simulated network.

    A deployment is [np] proxies fronting [ns] primary-backup servers (the
    paper's S2 with np = ns = 3), or — with [np = 0] — a bare S1 system
    whose clients talk to the servers directly. Each proxy and server node
    carries a randomized-executable {!Fortress_defense.Instance}: per the
    FORTRESS prescription, all servers share one randomization key, each
    proxy has its own, and at any time np + 1 randomly selected keys are in
    use. The deployment owns the engine, the network, the nameserver
    record, its obfuscation daemon and the compromise bookkeeping used by
    attack campaigns. *)

type config = {
  np : int;  (** proxies; 0 builds an unfortified S1 system *)
  ns : int;  (** primary-backup servers *)
  service : Fortress_replication.Dsm.t;
  service_name : string;
  keyspace : Fortress_defense.Keyspace.t;
  pb : Fortress_replication.Pb.config;  (** [ns] is overridden by [ns] above *)
  proxy : Proxy.config;
  latency : Fortress_net.Latency.t;
  seed : int;
}

val default_config : config
(** The paper's S2: np = 3, ns = 3, kv service, chi = 2^16, seed 0. *)

type t

val create : config -> t
val config : t -> config
val engine : t -> Fortress_sim.Engine.t

val network : t -> Message.t Fortress_net.Network.t
val nameserver : t -> Nameserver.t
val record : t -> Nameserver.record

val proxies : t -> Proxy.t array
val servers : t -> Fortress_replication.Pb.replica array
val proxy_instances : t -> Fortress_defense.Instance.t array
val server_instances : t -> Fortress_defense.Instance.t array
val proxy_addresses : t -> Fortress_net.Address.t array
val server_addresses : t -> Fortress_net.Address.t array

val new_client : t -> name:string -> Client.t
(** Register a fresh client node wired for this deployment's mode
    (via proxies when np > 0, direct otherwise). *)

val new_attacker_address : t -> name:string ->
  handler:(src:Fortress_net.Address.t -> Message.t -> unit) ->
  Fortress_net.Address.t
(** Register an attacker-controlled node with a custom handler. *)

(** {1 Obfuscation operations} *)

val rekey : t -> unit
(** Proactive obfuscation step: draw one fresh key for all servers and a
    distinct fresh key per proxy (np + 1 keys in use), then evict intruders
    (clear all compromise flags). *)

val recover : t -> unit
(** Proactive recovery step: reinstall the same executables (keys
    unchanged), evicting intruders. *)

val obfuscate : t -> mode:Obfuscation.mode -> period:float -> Obfuscation.t
(** Start this deployment's obfuscation daemon and keep it: each boundary
    runs {!rekey} (PO) or {!recover} (SO) inside an ["obf.boundary"]
    causal scope. Raises [Invalid_argument] if a daemon is already
    running. *)

val obfuscation : t -> Obfuscation.t option
(** The daemon {!obfuscate} started, if any — what fault plans stall and
    what the defender's period knob turns. *)

(** {1 Crash faults (driven by the fault-injection subsystem)} *)

val crash_server : t -> int -> unit
(** Crash server [i]: its network node goes down (in-flight deliveries
    voided), the replica loses volatile state, and any intrusion on it
    dies with the process. While down it misses obfuscation boundaries —
    {!rekey} / {!recover} skip down nodes, leaving stale keys behind. *)

val restart_server : t -> int -> unit
(** Bring server [i] back up; it resyncs over the network from the current
    primary. *)

val crash_proxy : t -> int -> unit
(** Crash proxy [i]: node down, pending requests orphaned, suspicion
    window and blocklist forgotten. *)

val restart_proxy : t -> int -> unit

val crash_nameserver : t -> unit
(** Lookups fail until restart; new clients cannot discover the service. *)

val restart_nameserver : t -> unit

(** {1 External symptom surface (read-only)}

    What an attacker-side liveness check observes from outside the
    perimeter — a request to a down node, or to a proxy cut off from every
    live server, times out; nothing about keys, epochs or compromise flags
    leaks. Pure reads: no PRNG consumption, no events, so adaptive
    campaigns can sample them without perturbing traces. *)

val symptoms : t -> Symptom.t list
(** Every node that would time out right now, in node order (servers,
    proxies, nameserver): a down server, a proxy that is down or
    partitioned from every live server, a downed nameserver. Empty — at
    O(1) cost — while the network is quiescent and the nameserver is up.
    This accessor replaces the former [server_unreachable] /
    [proxy_unreachable] / [unreachable_symptom] boolean methods and is
    the {!Stack_intf.S} symptom surface. *)

(** {1 Compromise bookkeeping (driven by attack campaigns)} *)

val compromise_server : t -> int -> unit
(** Mark server [i] intruded: its replies become attacker-controlled. *)

val compromise_proxy : t -> int -> unit
val server_compromised : t -> int -> bool
val proxy_compromised : t -> int -> bool
val compromised_proxy_count : t -> int

val system_compromised : t -> bool
(** The paper's S2 failure condition: any server compromised, or all
    proxies compromised. For np = 0 (S1) it is any server compromised. *)
