(** Every evaluation artefact of the reproduction, defined once.

    Figures 1-2, the section-6 ordering, the ablations A1-A8, the
    validations V1-V2 and the tables around them each appear here exactly
    once, at one operating point. The bench times and prints every entry,
    [fortress-cli report] renders them as markdown, [export] takes its
    CSVs from their tables, and the [choose] and [threats] subcommands
    print their entries, so all of them show the same numbers for one
    artefact. The Monte-Carlo entries that take a [jobs] count run at
    {!Fortress_par.Exec.default_jobs}; their output is identical at every
    job count. *)

type part = Table of Fortress_util.Table.t | Text of string

type t = {
  id : string;  (** short lookup key, e.g. ["a2"], ["v1"], ["choose"] *)
  title : string;  (** the bench section and report heading *)
  quick : bool;  (** analytic: renders in well under a second *)
  render : unit -> part list;
}

val all : t list
(** In bench and report order. *)

val find : string -> t
(** The entry with this id. Raises [Not_found] for an unknown id. *)

val text : part list -> string
(** Tables rendered aligned, texts verbatim, concatenated. *)

val table : string -> Fortress_util.Table.t
(** The first table of the entry with this id. *)
