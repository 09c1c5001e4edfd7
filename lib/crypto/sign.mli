(** Simulated public-key signatures.

    The paper's protocol needs servers and proxies to sign responses and
    clients to verify a proxy signature over a server signature. No
    asymmetric-crypto library is available in this environment, so we
    substitute HMAC-SHA-256: a keypair is one random 32-byte MAC secret,
    {!Hmac.prepare}d once. The public key carries the secret's SHA-256
    fingerprint and the prepared key itself as its verifier, so
    [verify] recomputes the tag with no lookup, no lock and no shared
    state, and a key lives exactly as long as the deployment that holds it.

    Both types are abstract and only [sign] makes a signature, and it
    takes a [secret_key]: a principal that holds only public keys — a
    client, a compromised proxy holding server keys — cannot mint a
    signature that verifies (tags are 256-bit MACs), while any principal
    can verify. Keys are immutable and may be used from any domain. *)

type secret_key
type public_key

val equal_public : public_key -> public_key -> bool
(** Equality of fingerprints. *)

val compare_public : public_key -> public_key -> int
val public_to_hex : public_key -> string
val pp_public : Format.formatter -> public_key -> unit

type signature = private string
(** The 32 raw tag bytes. Private: only {!sign} and {!forge} make one, and
    a payload builder may read its bytes (see {!Payload.add_hex}). *)

val signature_to_hex : signature -> string
val equal_signature : signature -> signature -> bool

val generate : Fortress_util.Prng.t -> secret_key * public_key
(** Draw a fresh keypair: four {!Fortress_util.Prng.bits64} draws, one
    SHA-256 digest for the fingerprint and the two HMAC midstates. *)

val public_of_secret : secret_key -> public_key
(** The matching public key; computes nothing. *)

val sign : secret_key -> string -> signature
val verify : public_key -> msg:string -> signature -> bool
(** [verify pk ~msg s] holds iff [s] was produced by [sign sk msg] for the
    [sk] matching [pk]. *)

val forge : Fortress_util.Prng.t -> signature
(** A random 32-byte tag, for attack tests: verifies with negligible
    probability. *)
