(** Deterministic discrete-event simulation engine.

    Events are callbacks scheduled at virtual times; [run] executes them in
    (time, insertion) order. All protocol simulations in this repository run
    on this engine, so a fixed PRNG seed reproduces an entire execution
    bit-for-bit. *)

type t

type handle
(** A scheduled event; may be cancelled before it fires. *)

val create : ?prng:Fortress_util.Prng.t -> unit -> t
(** [create ()] starts the clock at 0. A shared [prng] (default seed 0) is
    available to components via {!prng}; pass an explicit one to control the
    seed of a whole execution. The engine owns an observability {!sink}
    with no subscriber attached, and a virtual-time span context. *)

val now : t -> float
val prng : t -> Fortress_util.Prng.t

val sink : t -> Fortress_obs.Sink.t
(** Every consumer attaches its own subscriber here: JSONL writers,
    forwarders, {!Fortress_obs.Sink.counting} for per-label counters,
    {!Fortress_obs.Sink.tail} for a readable trace tail. *)

val emit : t -> Fortress_obs.Event.t -> unit
(** Emit a structured event stamped with the current virtual time. *)

val spans : t -> Fortress_obs.Span.ctx

val span : t -> ?parent:Fortress_obs.Span.span -> string -> Fortress_obs.Span.span
(** Open a virtual-time span at [now t]. *)

val finish_span : t -> Fortress_obs.Span.span -> unit
(** Close a span; the finished span is emitted through {!sink}. *)

val attach_causal : ?trace_id:int -> t -> Fortress_obs.Causal.t
(** Attach a causal trace context over this engine's span context,
    reseeding span ids to the [trace_id]'s disjoint block (see
    {!Fortress_obs.Causal.create}). Once attached, the network layer opens
    [net.send]/[net.deliver] spans around every message and instrumented
    components ({!causal_scope}/{!causal_ambient} call sites) thread
    parentage through them. Off by default: without this call no span is
    opened anywhere on the message plane and the event stream is
    byte-identical to pre-causal builds. *)

val causal : t -> Fortress_obs.Causal.t option

val causal_scope :
  t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a named causal span when a context is attached;
    the identity function otherwise (no allocation on the disabled path
    beyond the closure the caller already built). *)

val causal_ambient : t -> Fortress_obs.Span.span -> (unit -> 'a) -> 'a
(** Run a thunk with an existing span ambient (it becomes the parent of
    any span opened inside, e.g. the [net.send] of an outgoing message);
    identity when no context is attached. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] fires [f] at [now t +. delay]. Raises
    [Invalid_argument] on a negative or NaN delay, or when the delay
    interceptor returns NaN: a NaN time would break the queue's order for
    every other event. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Raises [Invalid_argument] when [time] is in the past or NaN. Exempt
    from the delay interceptor — fault timelines use this to stay on
    schedule while slowing everyone else down. *)

val set_delay_interceptor : t -> (float -> float) option -> unit
(** Install (or with [None] remove) a transform applied to every relative
    delay passed to {!schedule} — the fault subsystem's "slowdown" hook.
    The transformed delay is clamped to be non-negative. {!schedule_at} and
    {!every} are exempt: absolute timelines and periodic daemons keep their
    cadence. *)

val every : t -> period:float -> ?until:float -> (unit -> unit) -> handle
(** [every t ~period f] fires [f] at [now + period], [now + 2 period], ...
    Cancelling the returned handle stops the series. With [until], the
    series stops after that time. Raises [Invalid_argument] unless
    [period > 0] (so on NaN). *)

val cancel : handle -> unit
(** Idempotent; cancelling a fired event is a no-op. A cancelled event
    stays queued, and its closure reachable from the queue, until its
    time comes and it is popped unfired. *)

val is_cancelled : handle -> bool
val pending : t -> int
(** Number of scheduled, uncancelled events. *)

val step : t -> bool
(** Execute the next uncancelled event. Returns [false] when the queue
    holds none. *)

val run : ?until:float -> t -> unit
(** Drain the event queue; with [until], stop once the next event is
    strictly later than [until] (the clock then advances to [until]). *)

val record : t -> label:string -> string -> unit
(** Convenience: emit a free-form {!Fortress_obs.Event.Note} at the current
    time. *)

val attach_telemetry : ?alarms:bool -> t -> Fortress_obs.Timeline.t * Fortress_obs.Signal.t
(** Attach the telemetry plane to this engine's sink: a
    {!Fortress_obs.Timeline} of 100-vt windows (the canonical attack
    step) and a {!Fortress_obs.Signal} scoring the defender signals as
    each window closes; neither writes a metrics registry. Stacks attach
    their telemetry here, on [engine stack]. With [alarms] (default true)
    detector alarms are emitted back onto the sink as ["signal.alarm"]
    notes, so they interleave with fault-plan actions in any attached
    trace.
    Entirely subscriber-side: nothing schedules, no PRNG draws, so an
    execution's event stream is unchanged by attaching — only the trace
    gains the alarm notes. *)
