(** Bind a fault plan to a live deployment of either stack.

    One interpreter drives both stacks. It installs the link interceptor
    and the stack's corrupter on the network, schedules every timeline
    entry on the engine (via absolute [schedule_at], so the fault timeline
    itself is exempt from its own slowdown), and routes crash / restart /
    stall actions into the deployment. The per-stack facts live in the
    two constructors, {!fortress} and {!smr}; like {!Injector}, the rest
    is generic over the network's message type. *)

type 'msg deployment
(** A deployment as the interpreter sees it: engine, network, corrupter,
    how plan targets resolve, and the crash / restart / stall switches. *)

val fortress : Fortress_core.Deployment.t -> Fortress_core.Message.t deployment
(** The FORTRESS stack: [Server i] and [Proxy i] name its nodes and
    [Nameserver] its directory; a [Replica] target is rejected. *)

val smr : Fortress_core.Smr_deployment.t -> Fortress_replication.Smr.msg deployment
(** The 1-tier SMR stack (S0). Every plan target folds onto its single
    replica tier:

    - [Server i] and [Replica i] map to replica [i];
    - [Proxy i] (the plan's front tier) folds onto the tail end,
      [Replica (n - 1 - i)], so a partition plan that separates the front
      from the back on S2 isolates a minority on S0;
    - crashing or restarting the [Nameserver] is {e skipped} with a
      visible [skip] fault event (S0 has no directory), not rejected.

    On either stack, [Stall_obfuscation] / [Resume_obfuscation] wedge and
    unwedge the deployment's own obfuscation daemon
    ({!Fortress_core.Deployment.obfuscation},
    {!Fortress_core.Smr_deployment.obfuscation}), looked up when the action
    fires. A deployment with no daemon still gets the actions' [stall] /
    [resume] fault events; nothing is wedged. *)

type 'msg handle

val install : Plan.t -> 'msg deployment -> seed:int -> 'msg handle
(** Validates the plan (including that every named node exists in, or
    folds onto, this deployment) before touching anything. [seed] drives
    the injector's own salted PRNG — it does not perturb the engine's
    stream, so a faulted run samples the same organic randomness as the
    baseline, on either stack. *)

val stats : 'msg handle -> Injector.stats

val uninstall : 'msg handle -> unit
(** Remove the interceptor and corrupter, restore engine speed, unwedge
    the daemon and stop future timeline firings (in-flight scheduled
    entries become no-ops). Already-applied crashes and partitions are
    {e not} undone. *)
