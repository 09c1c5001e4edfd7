(* A keypair is one prepared MAC key plus its fingerprint. The two halves
   are the same record; only the abstract types of the interface keep a
   [public_key] holder from signing, since [sign] takes a [secret_key]. *)
type public_key = { fingerprint : string; key : Hmac.key }
type secret_key = public_key
type signature = string

let equal_public a b = String.equal a.fingerprint b.fingerprint
let compare_public a b = String.compare a.fingerprint b.fingerprint
let public_to_hex pk = Sha256.to_hex pk.fingerprint
let pp_public ppf pk = Format.pp_print_string ppf (String.sub (public_to_hex pk) 0 12)

let signature_to_hex = Sha256.to_hex
let equal_signature = String.equal

let random_32 prng =
  let buf = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_be buf (8 * i) (Fortress_util.Prng.bits64 prng)
  done;
  Bytes.to_string buf

let generate prng =
  let secret = random_32 prng in
  let keypair = { fingerprint = Sha256.digest secret; key = Hmac.prepare secret } in
  (keypair, keypair)

let public_of_secret sk = sk
let sign sk msg = Hmac.mac_with sk.key msg
let verify pk ~msg signature = Hmac.verify_with pk.key ~msg ~tag:signature
let forge = random_32
