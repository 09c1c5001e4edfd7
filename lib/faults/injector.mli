(** Compile a plan's link layer into a network interceptor.

    Generic over the network's message type: corruption is flagged on the
    verdict and resolved by the network's corrupter (see
    {!Fortress_net.Network.set_corrupter}), so this module needs no
    knowledge of the payload. {!Wiring} installs each stack's corrupter
    and the timeline on top. *)

type stats = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable delayed : int;  (** messages that only picked up extra latency *)
  mutable timeline_fired : int;  (** timeline actions applied (via Wiring) *)
}

val fresh_stats : unit -> stats
val stats_total : stats -> int
(** Injected link faults (excludes timeline actions). *)

val derive_prng : seed:int -> Fortress_util.Prng.t
(** The injector's own PRNG, salted so it never perturbs the engine's
    stream: baseline and faulted runs sample identical organic latencies
    and keys. *)

val link_interceptor :
  engine:Fortress_sim.Engine.t ->
  prng:Fortress_util.Prng.t ->
  stats:stats ->
  Plan.link ->
  'msg Fortress_net.Network.interceptor
(** Fixed draw order (drop, corrupt, duplicate, reorder, jitter) per
    message; every injected fault emits a [Fault] event. *)

val install_link :
  engine:Fortress_sim.Engine.t ->
  net:'msg Fortress_net.Network.t ->
  prng:Fortress_util.Prng.t ->
  stats:stats ->
  Plan.link ->
  unit
(** No-op when the link spec {!Plan.link_is_calm} — the hot path then keeps
    its zero-allocation interceptor-free behaviour. *)
