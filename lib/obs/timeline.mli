(** Fixed-width virtual-time windows over the event plane.

    A timeline is a pure observer: attach {!subscriber} to a {!Sink} and
    it aggregates every event into the window owning its timestamp —
    per-label counts (mirroring the counter names {!Sink.counting}
    registers, plus a ["fault.<action>"] refinement), lifetime totals and
    last-seen times. It keeps its own counts and reads no registry.

    Windows are kept in a bounded ring ([capacity] most recent indices);
    older windows are evicted and events older than the ring are counted
    in {!dropped}. Virtual time need not be monotone: a pooled stream
    (e.g. per-trial buffers replayed back-to-back by an inject run) lands
    late events in the retained window for their timestamp. {!on_window}
    close hooks fire only when the frontier advances — exactly once per
    window, in index order, on a monotone stream. Because aggregation is
    a pure fold over the event sequence, join-replay at any job count
    reproduces the identical timeline. *)

type t

type window = {
  index : int;  (** [t_lo = index * width] *)
  t_lo : float;  (** inclusive *)
  t_hi : float;  (** exclusive *)
  total : int;  (** events binned into this window *)
  counts : (string * int) list;  (** per-key counts, sorted by key *)
}

val create : ?capacity:int -> ?registry:Metrics.t -> width:float -> unit -> t
(** [capacity] defaults to 512 retained windows. When [registry] is given
    the timeline registers a ["timeline.window_events"] histogram there
    (64 bins over [0, 16384)) and, at {!finish}, observes each retained
    window's final event total once — late events of a pooled stream
    included. Raises [Invalid_argument] when [width] or [capacity] is not
    positive. *)

val subscriber : t -> Sink.subscriber
(** The subscriber to attach; events at negative times clamp to window 0.
    Events labelled ["signal.alarm"] are ignored — the telemetry plane
    never aggregates its own detector output, which also makes emitting
    alarms back into the watched sink re-entrancy-safe. *)

val on_window : t -> (window -> unit) -> unit
(** Register a close hook; hooks run in registration order each time the
    frontier moves past a window (and once more for the final open window
    on {!finish}). *)

val finish : t -> unit
(** Close the frontier window, fire its hooks and fill the
    ["timeline.window_events"] histogram; idempotent. Call when the
    stream is complete. *)

(** {2 Queries — usable online at any point} *)

val width : t -> float

val windows : t -> window list
(** Retained windows in ascending index order, the still-open frontier
    window included. *)

val window_count : t -> int
(** Windows ever opened, evicted and gap-skipped ones included. *)

val events_seen : t -> int

val dropped : t -> int
(** Late events whose window had already been evicted from the ring. *)

val totals : t -> (string * int) list
(** Lifetime per-key totals, sorted by key — unaffected by eviction. *)

val total : t -> string -> int
val last_seen : t -> string -> float option

val count : window -> string -> int
val rate : t -> window -> string -> float
(** [count w key / width] — events per unit virtual time. *)
