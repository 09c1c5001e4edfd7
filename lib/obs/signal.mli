(** Defender-visible signal series over a {!Timeline}.

    Four signals — the ones the ROADMAP's adaptive defender needs — are
    derived per window and folded through an EWMA smoother plus a
    one-sided CUSUM change-point detector:

    - {!Invalid_probe_rate}: [invalid_observed] events per unit virtual
      time (proxies logging malformed/invalid requests);
    - {!Blocked_source_rate}: [source_blocked] events per unit virtual
      time (the proxy tier burning attacker sources);
    - {!Crash_burst}: crash-outcome probes plus crash fault actions per
      unit virtual time (children dying to wrong-key probes);
    - {!Rekey_staleness}: virtual time since the last window containing a
      [rekey]/[recover] boundary — the defender's inference of how stale
      the proactive-obfuscation epoch is.

    The CUSUM statistic is [s_t = max 0 (s_(t-1) + raw - ref - slack)]
    with an alarm (and reset) once [s_t > threshold]; [ref] is the
    pre-update EWMA for the rate signals and 0 for staleness. The fold is
    deterministic, so identical timelines give identical series — the
    jobs-1-vs-4 contract extends to every alarm. *)

type kind = Invalid_probe_rate | Blocked_source_rate | Crash_burst | Rekey_staleness

val all : kind list

val kind_name : kind -> string
(** e.g. ["invalid-probe-rate"] — stable, used in alarm events. *)

val short_name : kind -> string
(** e.g. ["invalid"] — column header / gauge suffix. *)

type params = {
  ewma_alpha : float;  (** smoothing weight on the newest window *)
  cusum_slack : float;  (** per-window deviation forgiven before accumulating *)
  cusum_threshold : float;  (** alarm once the statistic exceeds this *)
  adaptive_ref : bool;  (** reference = pre-update EWMA (true) or 0 (false) *)
}

val default_params : kind -> params
(** Tuned for the canonical 100-vt step width; see DESIGN.md §11. *)

type point = {
  window : int;
  t_lo : float;
  t_hi : float;
  raw : float;
  ewma : float;
  cusum : float;  (** statistic value this window, pre-reset *)
  alarm : bool;
}

type t

val create : ?params:(kind -> params) -> ?emit:(time:float -> Event.t -> unit) -> Timeline.t -> t
(** Streaming mode: registers a {!Timeline.on_window} hook so every
    window is scored as it closes. [emit] (typically
    [Sink.emit sink] partially applied) publishes each alarm as a
    [Note {label = "signal.alarm"; _}] at the window's closing edge, so
    alarms land on the same trace as fault-plan actions. *)

val of_timeline :
  ?params:(kind -> params) ->
  ?emit:(time:float -> Event.t -> unit) ->
  ?registry:Metrics.t ->
  Timeline.t ->
  t
(** Batch mode: score the timeline's currently retained windows in index
    order. Use this for pooled/non-monotone streams (inject runs, trace
    files) where close hooks do not fire once per window. With [emit],
    alarms are appended to the trace as the fold runs — after the pooled
    stream, in window order. [registry] (when given) keeps a
    ["signal.<short_name>"] gauge per signal at the latest raw value and a
    ["signal.alarms"] counter. *)

(** {2 Typed query API} *)

val series : t -> kind -> point list
(** Scored points in window order. *)

val latest : t -> kind -> point option
val alarms : t -> (kind * point) list
(** Every alarm in the order it fired. *)

val params : t -> kind -> params

(** {2 Rendering} *)

val table : ?timeline:Timeline.t -> t -> Fortress_util.Table.t
(** One row per scored window: raw value per signal, which signals alarm,
    and — when [timeline] is supplied — the window's fault-plan actions,
    aligning detector output with injected faults. *)

val alarm_table : t -> Fortress_util.Table.t
