(** One-shot markdown report of the {!Artefact} list.

    The report is the machine-generated companion to EXPERIMENTS.md: it
    renders every artefact under its bench section title, in bench order,
    as one markdown document, so a fresh run diffs against the committed
    record ([test/golden/report-full.md] pins the full report). *)

type fidelity =
  | Quick  (** the analytic artefacts only — seconds *)
  | Full  (** every artefact, Monte-Carlo and packet-level ones included *)

val section : Artefact.t -> string
(** One artefact's block: a [## title] heading and its fenced output. *)

val generate : ?fidelity:fidelity -> unit -> string
(** The whole report as markdown. *)
