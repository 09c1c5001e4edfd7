(** The paper's S0 comparison system: a 1-tier, 4-replica SMR deployment
    whose clients interact with the replicas directly and vote over f + 1
    matching signed replies.

    Each replica carries its own randomized-executable instance with a
    {e distinct} key (diverse randomization is S0's whole defence), and the
    deployment's {!Obfuscation} daemon runs the Roeder-Schneider schedule:
    batches of at most [f] replicas leave the system per boundary, are
    re-randomized (or merely recovered), and rejoin via state transfer from
    the remaining majority — so the SMR service never stops. The same
    deployment is the replica tier behind {!Smr_fortress}'s proxies. *)

type config = {
  n : int;
  f : int;
  service : Fortress_replication.Dsm.t;
  keyspace : Fortress_defense.Keyspace.t;
  smr : Fortress_replication.Smr.config;  (** [n], [f] overridden *)
  latency : Fortress_net.Latency.t;
  seed : int;
}

val default_config : config
(** n = 4, f = 1, kv service, chi = 2^16. *)

type t

val create : config -> t
val engine : t -> Fortress_sim.Engine.t

val attach_telemetry :
  ?window:float ->
  ?capacity:int ->
  ?alarms:bool ->
  ?params:(Fortress_obs.Signal.kind -> Fortress_obs.Signal.params) ->
  t ->
  Fortress_obs.Timeline.t * Fortress_obs.Signal.t
(** The telemetry plane over the SMR baseline's event stream — same
    windows and defender signals as {!Deployment.attach_telemetry}, so S0
    and S2 signal timelines are directly comparable. *)

val network : t -> Fortress_replication.Smr.msg Fortress_net.Network.t
(** The deployment's network — exposed so the fault-injection layer can
    install link interceptors and partitions on the SMR stack too. *)

val replicas : t -> Fortress_replication.Smr.replica array
val instances : t -> Fortress_defense.Instance.t array
val addresses : t -> Fortress_net.Address.t array

val symptoms : t -> Symptom.t list
(** External symptom surface: every replica whose requests would time out
    right now (node down), in replica order. Pure read — no PRNG
    consumption, no events; empty at O(1) cost while the network is
    quiescent. Replaces the former [replica_unreachable] boolean method
    and is the {!Stack_intf.S} symptom surface. *)

type client

val new_client : t -> name:string -> client
val submit : client -> cmd:string -> on_response:(string -> unit) -> string
(** Send to all replicas; [on_response] fires on the first f+1 matching,
    validly signed replies. Emits [Request_submitted] after the fan-out
    and [Request_completed] just before [on_response], as the fortress
    {!Client} does, so workload accounting reads one event stream on
    either stack. *)

val client_accepted : client -> int

(** {1 Obfuscation and recovery} *)

val rekey_batch : t -> int list -> unit
(** Re-randomize the given replicas (fresh distinct keys) and put them
    through recovery: stop, wipe, restart, state transfer. *)

val recover_batch : t -> int list -> unit
(** Same, but the keys are unchanged (proactive recovery). *)

val batches : t -> int list list
(** The ceil(n/f) batches of at most f replicas, covering every index. *)

val obfuscate :
  ?stagger:bool -> t -> mode:Obfuscation.mode -> period:float -> Obfuscation.t
(** Start this deployment's obfuscation daemon and keep it: each boundary
    runs the batches through {!rekey_batch} (PO) or {!recover_batch} (SO).
    With [stagger] (the default, and what Roeder-Schneider deployment
    constraints force) the batches are spaced evenly inside each step, at
    the daemon's live period over the batch count plus one, so the SMR
    system always has a 2f+1 quorum of settled replicas; with
    [stagger:false] every batch fires back-to-back at the boundary, which
    aligns all replicas' exposure windows — measurably stronger against the
    simultaneity condition (see EXPERIMENTS.md V3) but only deployable when
    recovery is fast enough to overlap. {!Obfuscation.fire} runs one
    boundary's batches at once. Raises [Invalid_argument] if a daemon is
    already running. *)

val obfuscation : t -> Obfuscation.t option
(** The daemon {!obfuscate} started, if any. *)

(** {1 Crash faults} *)

val crash_replica : t -> int -> unit
(** Crash replica [i] with amnesia: node down, volatile ordering state
    lost, any intrusion on it dies with the process. *)

val restart_replica : t -> int -> unit
(** Bring replica [i] back and rejoin via state transfer. *)

(** {1 Compromise bookkeeping} *)

val compromise : t -> int -> unit
val compromised : t -> int -> bool
val compromised_count : t -> int

val system_compromised : t -> bool
(** S0 fails as soon as more than [f] replicas are simultaneously
    compromised. *)
