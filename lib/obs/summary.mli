(** Aggregate view of a structured event stream (usually a JSONL trace).

    Folds a stream of (time, event) pairs into per-label counts, probe
    breakdowns, span statistics and per-step rates, and can cross-check the
    measured per-step event rates against the paper's analytic laws at an
    (omega, chi, kappa) operating point. The label, probe and fault counts
    come from one {!Counts} fold, so they agree with {!Sink.counting}. *)

type t = {
  total : int;
  malformed : int;  (** lines that failed to parse (files only) *)
  t_min : float;
  t_max : float;
  by_label : (string * int) list;  (** sorted by label; [Note]s count under their label *)
  steps : int;  (** campaign step boundaries observed ([Step] events, not [Note]s) *)
  rekeys : int;
  recovers : int;
  probes_direct : int;
  probes_indirect : int;
  probes_launchpad : int;
  probes_crashed : int;
  probes_intruded : int;
  probes_blocked : int;
  proxy_probes : int;  (** probes aimed at the proxy tier *)
  server_probes : int;  (** probes aimed at the server tier *)
  proxies_seen : int;  (** distinct proxy-tier probe targets *)
  compromises_proxy : int;
  compromises_server : int;
  trials : int;
  trials_censored : int;
  trial_lifetime_sum : float;
  spans : (string * int * float) list;  (** name, count, total virtual duration *)
  faults : (string * int) list;  (** injected-fault counts per action, sorted *)
  alarms : (string * int * float) list;
      (** per-detector [signal.alarm] counts and first-alarm virtual time,
          sorted by detector name *)
}

val of_events : (float * Event.t) list -> t
val of_file : string -> t

val table : t -> Fortress_util.Table.t

val fault_table : t -> Fortress_util.Table.t
(** Per-action injected-fault counts ({!Event.Fault} events, e.g. "drop",
    "crash", "partition"). Empty for traces recorded without a plan. *)

val alarm_table : t -> Fortress_util.Table.t
(** Per-detector [signal.alarm] counts with first-alarm virtual time —
    what the defender saw and when, straight from a bare JSONL trace.
    Empty for traces recorded without an alarm-emitting signal plane. *)

val render : t -> string
(** Overview plus per-label counts (with an events-per-unit-virtual-time
    rate over the observed [t_min..t_max] span), probe breakdown,
    per-step rates, fault breakdown and span statistics. *)

type check = { metric : string; measured : float; expected : float; ok : bool }

val consistency : omega:int -> chi:int -> kappa:float -> t -> check list
(** Compare measured per-step rates against the analytic laws: direct proxy
    probes/step vs np*omega, server-aimed probes/step vs kappa*omega,
    rekeys/step vs 1, and the per-probe intrusion fraction vs the sampling
    law at key-space size chi. A check passes within a generous tolerance
    that accounts for Monte-Carlo noise and edge steps. *)

val check_table : check list -> Fortress_util.Table.t
