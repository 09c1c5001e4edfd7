(** The event plane's counter keys, and the one fold that counts them.

    Every event counts once under ["events.<label>"] ({!Event.label}); a
    probe also counts under ["probe.<kind>"] and ["probe.<outcome>"]. The
    keys of every constructor but [Note], and the six probe refinements,
    are fixed: they count in an int array, one slot per key. A [Note]'s
    key is open-ended and counts in a hashtable, as does the
    ["fault.<action>"] refinement {!add} gives every [Fault].

    A [Note] labelled like a constructor (say ["step"]) counts under that
    constructor's key, in the table: {!find} and {!to_list} add the two,
    while {!fixed} reads the constructor's slot alone.

    {!Sink.counting}, {!Summary} and {!Timeline} all count through this
    module, so their keys agree by construction. *)

val keys : string array
(** The fixed keys, indexed by slot. *)

val iter : fixed:(int -> unit) -> note:(string -> unit) -> Event.t -> unit
(** [iter ~fixed ~note ev] calls [fixed] on every slot [ev] counts under,
    or [note] on the ["events.<label>"] key of a [Note]. The map from
    event to keys; it allocates nothing but a [Note]'s key. *)

type t

val create : unit -> t

val add : t -> Event.t -> unit
(** Count an event under its {!iter} keys and, for a [Fault], under
    ["fault.<action>"] too. Allocation-free but for a [Note], and for the
    first [Fault] of each action. *)

val find : t -> string -> int
(** Count under a key, slot and table together; 0 for a key never seen. *)

val fixed : t -> string -> int
(** Count in a fixed key's slot alone — events of that constructor or
    probe refinement, without the [Note]s that share the key; 0 for a key
    that is not fixed. *)

val to_list : t -> (string * int) list
(** Every key counted at least once with its {!find} count, sorted by
    key. *)

val with_prefix : string -> t -> (string * int) list
(** The {!to_list} entries whose key starts with the prefix, prefix
    stripped, in the same order. *)
