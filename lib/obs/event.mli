(** Structured observability events.

    Every notable occurrence in the FORTRESS stack is one of these tagged
    variants — not a printf string — so sinks can count, filter and export
    them mechanically. The taxonomy follows the paper's vocabulary: probes
    (direct / indirect at rate kappa / launch-pad), obfuscation boundaries
    (rekey under PO, recover under SO), compromises, and the protocol and
    workload events around them. [Note] is the escape hatch for free-form
    trace lines; [Span_finished] carries a completed virtual-time span. *)

type tier = Proxy_tier | Server_tier
type probe_kind = Direct | Indirect | Launchpad

type probe_outcome =
  | Crashed  (** wrong key: the forked child dies, the attacker learns *)
  | Intruded  (** right key: the target is compromised *)
  | Blocked  (** the proxy's suspicion detector dropped the probe *)

type t =
  | Probe of { kind : probe_kind; tier : tier; target : int; outcome : probe_outcome }
  | Compromise of { tier : tier; index : int }
  | Rekey of { nodes : int }  (** PO boundary: fresh keys everywhere *)
  | Recover of { nodes : int }  (** SO boundary: intruders evicted, keys kept *)
  | Step of { n : int }  (** attack-campaign unit time-step boundary *)
  | Invalid_observed of { proxy : int }  (** proxy logged an invalid request *)
  | Source_blocked of { proxy : int; source : int }
  | Source_rotated of { burned : int }  (** attacker abandons a blocked source *)
  | Request_submitted of { id : string }
  | Request_completed of { id : string; accepted : bool }
  | Reply_rejected of { id : string }  (** signature check failed at the client *)
  | Msg_delivered of { src : int; dst : int }
  | Msg_dropped of { src : int; dst : int; reason : string }
  | Failover of { proto : string; replica : int; view : int }
  | Repl of { proto : string; kind : string; detail : string }
      (** replication-protocol internals: ack timeouts, resyncs, divergence *)
  | Trial of { index : int; seed : int; lifetime : float option }
      (** one Monte-Carlo trial: root seed + censored-or-observed lifetime *)
  | Span_finished of {
      id : int;
      parent : int option;
      name : string;
      start_time : float;
      duration : float;
      attrs : (string * string) list;
    }
  | Fault of { action : string; target : string; detail : string }
      (** injected by the fault subsystem: [action] is the fault kind
          ("drop", "crash", "partition", "stall_skip", ...), [target] the
          link / node / daemon it hit *)
  | Directive of { step : int; strategy : string; detail : string }
      (** an adaptive attack strategy changed the campaign's settings at
          the boundary of [step]; emitted only when something actually
          changed, so an oblivious strategy's trace carries none *)
  | Note of { label : string; detail : string }

val tier_to_string : tier -> string
val kind_to_string : probe_kind -> string
val outcome_to_string : probe_outcome -> string

val label : t -> string
(** Short stable tag ("probe", "rekey", ...) used for counters and the
    per-label summary; [Note] events report their embedded label. *)

val detail : t -> string
(** Human-readable one-line rendering, the last column of a
    {!Sink.tail} line. *)

val verbosity : t -> [ `Info | `Debug ]
(** [`Debug] events are high-rate (per probe / per message / per
    request); [`Info] events are the rarer state changes that
    {!Sink.tail} keeps. *)

val write : Buffer.t -> time:float -> t -> unit
(** [write buf ~time ev] appends the trace line of [ev], without newline:
    [{"t":<time>,"event":"<label>",<fields>}] in {!Json}'s rules. It is the
    line's one writer and builds no {!Json.t}. *)

val writer : unit -> Buffer.t -> time:float -> t -> unit
(** A {!write} that formats a non-integral time once while consecutive
    events repeat it; each writer owns that memory, so domains share none. *)

val of_json : Json.t -> (t, string) result
(** Reads the object {!write} renders (the ["t"] member is ignored). *)

val pp : Format.formatter -> t -> unit
