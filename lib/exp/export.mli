(** Export the evaluation data for external plotting.

    Writes the tables of seven {!Artefact} entries as CSV, plus
    ready-to-run gnuplot scripts that regenerate the paper's two figures
    as log-log PNG plots, so the data can leave the terminal. *)

val artefacts : unit -> (string * string) list
(** [(filename, contents)] pairs: the CSVs of the {!Artefact} tables for
    Figure 1, Figure 2, the ordering, ablations A1/A3, the PODC claim and
    the sensitivity table, at the operating points the report shows, plus
    [figure1.gp] / [figure2.gp] gnuplot scripts referencing them. *)

val ensure_dir : string -> unit
(** Create [dir] and any missing parents (like [mkdir -p]). Raises
    [Sys_error] when a component exists but is not a directory. *)

val write_all : dir:string -> (string * int) list
(** Create [dir] (and any missing parents) if needed and write every
    artefact; returns [(path, bytes)] per file written. Raises [Sys_error]
    on an unwritable destination. *)
