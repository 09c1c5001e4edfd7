(** Detection- and reaction-latency extraction.

    Walks a finished event stream and measures the defender's sensing and
    actuation chains as virtual-time distributions rather than anecdotes:

    - {e detection}: first real fault action (crash, partition, stall,
      link fault — never bookkeeping like [plan_installed]) with no chain
      already open, to the next [signal.alarm];
    - {e reaction}: [signal.alarm] to the next defender directive
      (strategy ["defender:*"]);
    - {e stall-rekey}: obfuscation [stall] to the next forced rekey or
      recovery boundary.

    A chain still open when the stream ends is counted as censored. All
    extraction is a pure fold over events — nothing here perturbs the
    simulation, so attaching a {!collector} never changes digests. *)

type kind = Detection | Reaction | Stall_rekey

val kinds : kind list
val kind_name : kind -> string
(** ["detection"], ["reaction"], ["stall-rekey"]. *)

val kind_chain : kind -> string
(** Human-readable description of the chain's endpoints. *)

type t
(** A finished extraction: closed chains plus censored counts per kind. *)

val empty : t

val merge : t list -> t
(** Concatenate chains in list order. Pooled runs merge per-trial results
    in trial-index order, keeping the merged value job-count invariant. *)

val chains : t -> kind -> (float * float) list
(** (open-time, close-time) pairs, oldest first. *)

val durations : t -> kind -> float list
val censored : t -> kind -> int
val total : t -> int
(** Closed chains across all kinds. *)

type summary = {
  s_count : int;
  s_censored : int;
  s_sum : float;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

val summary : t -> kind -> summary option
(** [None] when the kind has neither closed nor censored chains.
    Percentiles are nearest-rank over the closed-chain durations. *)

val collector : unit -> Sink.subscriber * (unit -> t)
(** Streaming extraction: attach the subscriber to a live sink, call the
    thunk once the stream is finished. *)

val of_events : (float * Event.t) list -> t
(** Offline extraction. The stream is split into per-trial segments on
    [Trial] events (pooled traces restart virtual time per trial), and each
    segment is canonically ordered — by time, ties broken by the rendered
    JSONL line — so the result is invariant under event reordering within
    a segment (late-delivery tolerance). *)

val table : t -> Fortress_util.Table.t
(** Per-kind summary table (n, censored, mean, p50/p90/p99, max). *)

val chain_table : t -> Fortress_util.Table.t
(** Every closed chain as its own row. *)

val critical_path_table : ?limit:int -> (float * Event.t) list -> Fortress_util.Table.t
(** Roots of the causal span tree ranked by elapsed virtual time to their
    deepest-ending descendant, with the chain of span names along the
    critical path. [limit] caps the rows (default 20). *)
