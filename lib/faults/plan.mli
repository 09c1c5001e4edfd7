(** Declarative, seeded, virtual-time fault plans.

    A plan has two parts. The {b link layer} is a set of per-message fault
    rates sampled independently for every [Network.send] — drop, duplicate,
    reorder (an extra copy-free delay), corrupt, plus deterministic extra
    latency and uniform jitter. The {b timeline} is a list of entries fired
    at absolute virtual times (optionally repeating): process crash /
    restart, pairwise partitions with scheduled heal, rekey-daemon stalls
    and a global scheduling slowdown.

    Plans are pure data; {!Wiring.install} compiles one onto a live
    deployment of either stack, FORTRESS or the S0 SMR baseline. Identical
    (plan, seed) pairs reproduce bit-equal traces — nothing in a plan
    consults wall-clock time or global state. *)

type link = {
  drop : float;  (** per-message loss probability added by the fault layer *)
  duplicate : float;  (** probability a message is delivered twice *)
  reorder : float;
      (** probability a message is held back [reorder_delay] longer, letting
          later sends overtake it *)
  reorder_delay : float;
  corrupt : float;  (** probability the payload is mangled in flight *)
  extra_latency : float;  (** deterministic latency added to every message *)
  jitter : float;  (** extra uniform latency in [0, jitter) per message *)
}

val calm : link
(** All rates and delays zero. *)

val link_is_calm : link -> bool

type target = Fortress_model.Node_id.t =
  | Server of int
  | Proxy of int
  | Replica of int
  | Nameserver
(** Re-export of {!Fortress_model.Node_id.t}: plans, attacker observations
    and trace events share one node-naming scheme. [Server]/[Proxy] name
    FORTRESS nodes, [Replica] names an SMR node. {!Wiring.fortress}
    rejects [Replica] targets; {!Wiring.smr} folds every target onto its
    single replica tier. *)

val target_to_string : target -> string
(** Alias of {!Fortress_model.Node_id.to_string} — the exact strings trace
    events always carried, so digests are unchanged. *)

val target_of_string : string -> target option

type action =
  | Crash of target
  | Restart of target
  | Partition of target * target  (** nameserver targets are rejected *)
  | Heal_all
  | Stall_obfuscation  (** boundaries elapse without rekey / recovery *)
  | Resume_obfuscation
  | Slowdown of float
      (** multiply every relative scheduling delay by this factor
          (1.0 restores normal speed) *)

val action_to_string : action -> string

type entry = { at : float; every : float option; action : action }

val once : at:float -> action -> entry
val repeat : at:float -> every:float -> action -> entry
(** First firing at [at], then every [every] time units forever (until the
    plan is uninstalled). *)

type t = { name : string; link : link; timeline : entry list }

val validate : t -> unit
(** Raises [Invalid_argument] on out-of-range rates, negative delays or
    times, non-positive repeat periods or slowdown factors, and partitions
    naming the nameserver. *)

(** {2 Built-in plans}

    An escalation ladder — each plan is its predecessor plus strictly more
    hostility, phrased against the default operating point (obfuscation
    period 100.0): [lossy] is link noise only; [partition] raises the loss
    rate and adds mid-step partition windows; [crashy] adds server crashes
    timed to miss rekey boundaries (stale keys survive) and proxy crashes
    that forget blocklists; [chaos] turns everything up and wedges the
    rekey daemon for good from t = 140. *)

val none : t
val lossy : t
val partition : t
val crashy : t
val chaos : t

val builtins : t list
(** [none; lossy; partition; crashy; chaos] in escalation order. *)

val find : string -> t option
(** Look a built-in up by name. *)
