(** What a de-randomization attacker knows about one target's key.

    Each failed probe eliminates one key from the chi possibilities —
    provided the target keeps its key (SO / proactive recovery). When the
    target is re-randomized (PO), accumulated eliminations become worthless
    and the attacker starts over; this is exactly the sampling
    with/without replacement distinction the paper's models rest on. The
    attacker detects re-randomization by the target's epoch.

    Cost: a guess takes O(1) expected time while more than half the keys
    are untried, and O(log chi) after that; the first guess past that
    point builds a per-64-key count index in O(chi), once per epoch.
    Ruling a key out costs O(1), or O(log chi) once the index exists. A
    rekey clears the eliminations in place (chi / 8 bytes written, no
    allocation). Memory: chi / 8 bytes per tracked target, plus chi / 64
    words once more than half its keys have been eliminated. *)

type t

val create : Fortress_defense.Keyspace.t -> t
val keyspace : t -> Fortress_defense.Keyspace.t

val eliminated : t -> int
(** Keys ruled out so far in the current randomization epoch. *)

val remaining : t -> int

val known_key : t -> int option
(** [Some k] once the attacker has confirmed the key (a probe succeeded).
    Survives proactive recovery — the key did not change — but is discarded
    on re-randomization. *)

val next_guess : t -> Fortress_util.Prng.t -> int option
(** A uniformly random not-yet-eliminated key; the confirmed key when one
    is known. [None] when every key has been eliminated — the attacker is
    exhausted. Against an unfaulted live target this cannot happen (the
    last remaining key is the key), but under fault injection a target can
    change keys without the attacker noticing, so campaigns must treat
    exhaustion as a graceful outcome. *)

val observe_crash : t -> guess:int -> unit
(** The probe [guess] crashed the child: that key is ruled out. Ruling a
    key out twice counts once. Raises [Invalid_argument] when [guess] is
    not in the key space. *)

val observe_intrusion : t -> guess:int -> unit
(** The probe succeeded: the key is confirmed. Raises [Invalid_argument]
    when [guess] is not in the key space. *)

val on_target_rekeyed : t -> unit
(** The target re-randomized: all eliminations and any confirmed key are
    void. *)

val on_target_recovered : t -> unit
(** Proactive recovery: the key is unchanged, knowledge survives. (A no-op,
    present so campaign code can treat both transitions uniformly.) *)
