(** Signed payloads, built without a format string.

    Every MAC input in the protocol is a tag followed by ['|']-prefixed
    fields: byte strings, decimal ints and the hex of a signature. A
    payload is sized exactly from the widths of its fields, so building
    one allocates the result and a two-field cursor, and interprets no
    format. Its bytes are those of [Printf.sprintf] with [%s] for a string
    or hex field and [%d] for an int field:

    {[
      let p = create "pb-reply" ~fields:(str_width id + int_width i) in
      add_str p id;
      add_int p i;
      contents p (* = Printf.sprintf "pb-reply|%s|%d" id i *)
    ]} *)

type t

val create : string -> fields:int -> t
(** [create tag ~fields] starts a payload with [tag] and room for [fields]
    more bytes: the summed widths of the fields added next. *)

val str_width : string -> int
val int_width : int -> int
val hex_width : string -> int
(** The bytes a field takes, its ['|'] included. *)

val add_str : t -> string -> unit
val add_int : t -> int -> unit

val add_hex : t -> string -> unit
(** The lowercase hex of raw bytes, as {!Sha256.to_hex} renders them. *)

val contents : t -> string
(** The payload. Raises [Invalid_argument] unless the fields added fill the
    declared width exactly; an [add_] past it raises too. *)
