(** The shared stack signature both deployments meet.

    [Fortress_exp.Stack_driver.Fortress] (the paper's fortified S1/S2
    systems, over a {!Deployment.t}) and [Fortress_exp.Stack_driver.Smr]
    (the S0 SMR baseline, over an {!Smr_deployment.t}) implement [S]
    directly, so everything that drives a stack from the outside — the
    {!Defense_control} wiring, the fault-injection experiment loop, and the
    [fortress_load] workload plane — is written once against the signature
    instead of twice per stack. Each deployment keeps its own
    {!Obfuscation} daemon, which is where the rekey-period knobs act.

    The signature covers the three surfaces an external driver needs:

    - {b requests}: [new_client] / [submit] / [client_accepted]. Both
      stacks' clients emit [Request_submitted] / [Request_completed] events
      on the engine's sink for every accepted request, so workload
      accounting reads one event stream regardless of stack.
    - {b symptoms}: the pure read-only {!Symptom.t} surface.
    - {b defense actuators}: rekey-period and threshold knobs plus
      immediate rekey/recovery boosts. The actuators are plain calls —
      callers that want causal attribution (e.g. {!Defense_control})
      wrap them in [Engine.causal_scope] themselves.

    Telemetry is not a stack surface: the windowed timeline and
    defender-signal plane attach to [engine stack] directly. *)

module type S = sig
  type t
  type client

  val name : string
  (** Stable stack label used in tables and artifacts ("fortress",
      "smr"). *)

  val engine : t -> Fortress_sim.Engine.t
  (** Its sink carries the stack's event stream; telemetry attaches there
      with {!Fortress_sim.Engine.attach_telemetry}. *)

  val symptoms : t -> Symptom.t list
  (** The externally observable symptom surface; pure read (no PRNG, no
      events), cheap when the network is quiescent. *)

  val rekey_period : t -> float
  (** The live obfuscation boundary spacing. Raises [Invalid_argument]
      if the stack's obfuscation daemon is not running. *)

  val set_rekey_period : t -> float -> unit
  val default_threshold : t -> int
  (** The configured detection-threshold default the controller resets
      to; a stack without a threshold knob reports a harmless constant. *)

  val set_threshold : t -> int -> unit
  (** Graceful no-op on stacks without a proxy tier. *)

  val rekey_now : t -> unit
  val recover_now : t -> unit
  val system_compromised : t -> bool
  val new_client : t -> name:string -> client
  val submit : client -> cmd:string -> on_response:(string -> unit) -> string
  val client_accepted : client -> int
end
