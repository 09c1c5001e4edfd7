(** The obfuscation daemon: one boundary clock for every deployment.

    The paper models two regimes (section 4.1). {b PO} (proactive
    obfuscation): every node is re-randomized with fresh keys at the end of
    each unit time-step — guessing across steps is sampling {e with}
    replacement. {b SO} (start-up-only obfuscation): nodes are randomized
    once at start-up and merely {e recovered} each step (same keys, Castro-
    Liskov proactive recovery) — an attacker eliminates keys across steps,
    sampling {e without} replacement. Re-randomization is modelled as
    instantaneous at the step boundary, as in the paper.

    The daemon knows nothing about the nodes it serves: a deployment starts
    one with the [boundary] action that rekeys or recovers its own tier
    ({!Deployment.obfuscate}, {!Smr_deployment.obfuscate}) and keeps it.
    The daemon owns the re-arming clock, the period knob, the stall switch
    that fault plans wedge it with, and {!fire}, the defender's immediate
    boundary. *)

type mode = PO | SO

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type t

val start : Fortress_sim.Engine.t -> mode:mode -> period:float -> (t -> unit) -> t
(** [start engine ~mode ~period boundary] runs [boundary] at [period], then
    every [period] thereafter, passing the daemon so the action can read
    its live {!period}. Raises [Invalid_argument] on a non-positive
    period. *)

val mode : t -> mode

val period : t -> float
(** The current boundary spacing (mutable via {!set_period}). *)

val steps_completed : t -> int
(** Periodic boundaries that ran; skipped and {!fire}d ones do not count. *)

val set_period : t -> float -> unit
(** Defender actuator: change the boundary spacing. Takes effect when the
    already-armed boundary fires — the next interval, not the current one —
    so a mid-interval change never reschedules an in-flight boundary and a
    run that never calls this is byte-identical to a fixed schedule.
    Raises [Invalid_argument] on a non-positive period. *)

val fire : t -> unit
(** Defender actuator: run the boundary action now, even while stalled —
    the controller's recovery-priority escape hatch. Does not disturb the
    periodic chain and counts no step. *)

val set_stalled : t -> bool -> unit
(** Fault hook: while stalled, boundaries fire but perform no rekey /
    recovery — the daemon is wedged, keys stay exposed, and each skipped
    boundary emits a ["stall_skip"] fault event. *)

val stalled : t -> bool
val skipped_boundaries : t -> int
(** Boundaries that elapsed while stalled. *)

val detach : t -> unit
(** Stop future boundaries (used when tearing an experiment down). *)
