(** Pure-OCaml SHA-256 (FIPS 180-4) over native ints.

    Used for message digests inside the simulated signature scheme. The
    implementation is validated in the test suite against the NIST vectors
    for "", "abc", the 448-bit two-block message and a million 'a', and
    against the Int32 implementation it replaced on random inputs. Every
    one-shot digest ({!digest}, {!digest_from}) counts once under the
    [crypto.sha256] profiler phase, and allocates only its 32-byte result:
    it builds no context, and works in a chaining value, schedule and tail
    kept once per domain. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val finalize : ctx -> string
(** Return the 32-byte raw digest and invalidate the context (further
    [feed]/[finalize] raises [Invalid_argument]). *)

val digest : string -> string
(** One-shot raw 32-byte digest. *)

type midstate
(** The 8-word chaining value after one 64-byte block: what is left to do
    of a digest whose message starts with that block. Immutable, so one
    midstate may be resumed any number of times, on any domain. *)

val midstate : string -> midstate
(** [midstate block] compresses the 64-byte [block] from the initial hash
    value. Raises [Invalid_argument] unless [block] is exactly 64 bytes. *)

val digest_from : midstate -> string -> string
(** [digest_from (midstate block) msg] equals [digest (block ^ msg)]
    without building [block ^ msg] or compressing [block] again. *)

val hex : string -> string
(** One-shot lowercase hex digest (64 characters). *)

val to_hex : string -> string
(** Lowercase hex encoding of arbitrary bytes: one table read per nibble,
    and the result is the only allocation. *)

val blit_hex : string -> Bytes.t -> int -> unit
(** [blit_hex raw dst off] writes [to_hex raw] into [dst] at [off] without
    building it. Raises [Invalid_argument] if it does not fit. *)
