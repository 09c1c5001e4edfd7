(** HMAC-SHA-256 (RFC 2104), validated against RFC 4231 test vectors and
    against a string-building implementation on random keys and messages.

    A key is {!prepare}d once into the inner and outer midstates, the
    chaining values after the key's ipad and opad blocks; a MAC with a
    prepared key then compresses only the message and the inner digest:
    3 compressions instead of 5 for a 56–119-byte message. *)

type key
(** A prepared key. Immutable, so it may be shared across domains. *)

val prepare : string -> key
(** Keys longer than the 64-byte block are hashed first, per the RFC;
    shorter ones are zero-padded. *)

val mac_with : key -> string -> string
(** The raw 32-byte tag, counted once under the [crypto.hmac] profiler
    phase and twice (inner and outer digest) under [crypto.sha256]. *)

val verify_with : key -> msg:string -> tag:string -> bool
(** Constant-time comparison of [tag] against [mac_with key msg]. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is [mac_with (prepare key) msg]. *)

val mac_hex : key:string -> string -> string
(** Hex-encoded tag. *)

val verify : key:string -> msg:string -> tag:string -> bool
(** [verify_with (prepare key)]. *)
