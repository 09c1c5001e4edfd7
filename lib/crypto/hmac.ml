let block_size = 64

type key = { inner : Sha256.midstate; outer : Sha256.midstate }

(* the key zero-padded to one block, every byte xored with [byte] *)
let padded key byte =
  String.init block_size (fun i ->
      Char.chr ((if i < String.length key then Char.code key.[i] else 0) lxor byte))

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  { inner = Sha256.midstate (padded key 0x36); outer = Sha256.midstate (padded key 0x5c) }

let mac_phase = Fortress_prof.Profiler.register "crypto.hmac"

let mac_unprofiled key msg = Sha256.digest_from key.outer (Sha256.digest_from key.inner msg)

let mac_with key msg =
  if Fortress_prof.Profiler.is_enabled () then
    Fortress_prof.Profiler.record mac_phase (fun () -> mac_unprofiled key msg)
  else mac_unprofiled key msg

let verify_with key ~msg ~tag =
  let expected = mac_with key msg in
  String.length tag = String.length expected
  &&
  (* constant-time comparison *)
  let diff = ref 0 in
  for i = 0 to String.length tag - 1 do
    diff := !diff lor (Char.code tag.[i] lxor Char.code expected.[i])
  done;
  !diff = 0

let mac ~key msg = mac_with (prepare key) msg
let mac_hex ~key msg = Sha256.to_hex (mac ~key msg)
let verify ~key ~msg ~tag = verify_with (prepare key) ~msg ~tag
