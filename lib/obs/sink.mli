(** Structured event sink with pluggable subscribers.

    Components emit {!Event.t} values stamped with virtual time; every
    attached subscriber sees every event. Stock subscribers cover the
    standard consumers: a counting subscriber feeding a {!Metrics.t}
    registry, a bounded in-memory collector and its human-readable tail,
    and a JSONL writer whose lines {!parse_line} inverts. A fresh sink has
    no subscriber: each consumer attaches its own. *)

type t

type subscriber = time:float -> Event.t -> unit
type handle

val create : unit -> t
val attach : t -> subscriber -> handle
val detach : t -> handle -> unit
(** Detaching an unknown or already-detached handle is a no-op. *)

val subscriber_count : t -> int

val emit : t -> time:float -> Event.t -> unit

val emitted : t -> int
(** Total events emitted through this sink since creation. *)

val forward : t -> subscriber
(** [forward downstream] is a subscriber that re-emits into [downstream] —
    used to splice a per-engine sink into a run-wide one. *)

(** {2 Stock subscribers} *)

val counting : Metrics.t -> subscriber
(** Bumps ["events.<label>"] for every event, plus refined
    ["probe.<kind>"] / ["probe.<outcome>"] counters for probes. *)

val memory : ?capacity:int -> unit -> subscriber * (unit -> (float * Event.t) list)
(** Keeps the most recent [capacity] (default 65536) events; the closure
    returns them oldest first. *)

val tail : lines:int -> subscriber * (unit -> string)
(** A {!memory} ring of the last [lines] [`Info] events (see
    {!Event.verbosity}); the closure renders them oldest first, one
    newline-terminated ["[%10.4f] %-18s %s"] line (time, {!Event.label},
    {!Event.detail}) each. Raises [Invalid_argument] when [lines <= 0]. *)

val jsonl : (string -> unit) -> subscriber
(** Renders each event as one JSON line (no trailing newline) and hands it
    to the writer. *)

val jsonl_channel : out_channel -> subscriber
(** [jsonl] wired to an [out_channel], newline-terminated. *)

val file : string -> subscriber * (unit -> unit)
(** [file path] opens (truncating) a JSONL trace file and returns the
    writing subscriber with its teardown closure, which flushes and closes
    the file. Closing twice is a no-op; events arriving after close are
    dropped rather than written to a dead descriptor. *)

val digesting : unit -> subscriber * (unit -> string)
(** Streaming FNV-1a 64-bit digest of the newline-terminated JSONL
    rendering of every event seen. The closure returns the current digest
    as 16 lowercase hex digits; two runs are trace-identical iff their
    digests match. *)

val digest_lines : string list -> string
(** FNV-1a 64-bit digest of the given strings, each newline-terminated —
    the same fold {!digesting} applies to trace lines. Parallel campaigns
    use it to combine per-trial digests in trial-index order into one
    run-level digest that is independent of the job count. *)

val buffered : ?capacity:int -> unit -> subscriber * (t -> unit)
(** [buffered ()] is a subscriber that records every event in arrival
    order, plus a replay closure that re-emits the recording into a
    downstream sink with original timestamps. The recording lives in a
    growable arena whose backing array is allocated lazily at the first
    event (initial size [capacity], default 64, doubling as needed), so
    an attached-but-silent recorder is almost free and a busy one
    allocates O(log events) arrays instead of a cons cell per event.
    Sinks themselves are not
    thread-safe; parallel workers each write to their own buffered
    subscriber and the join replays the buffers in deterministic trial
    order, which is how a shared [--trace-out] stream stays byte-identical
    across job counts. *)

(** {2 JSONL codec} *)

val line : time:float -> Event.t -> string
(** [{"t": <time>, "event": ..., ...}] — one trace line. *)

val parse_line : string -> (float * Event.t, string) result
