open Fortress_crypto

(* ---- SHA-256 NIST vectors ---- *)

let test_sha256_empty () =
  Alcotest.(check string) "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "")

let test_sha256_abc () =
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc")

let test_sha256_two_blocks () =
  Alcotest.(check string) "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  Alcotest.(check string) "million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha256_streaming () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "ab";
  Sha256.feed ctx "c";
  Alcotest.(check string) "chunked equals one-shot" (Sha256.hex "abc")
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_streaming_across_blocks () =
  let msg = String.init 200 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  Sha256.feed ctx (String.sub msg 0 63);
  Sha256.feed ctx (String.sub msg 63 2);
  Sha256.feed ctx (String.sub msg 65 135);
  Alcotest.(check string) "block-boundary chunking" (Sha256.hex msg)
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_finalize_once () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha256.finalize: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let test_sha256_length_55_56_57 () =
  (* padding boundary cases around 56 bytes *)
  List.iter
    (fun n ->
      let msg = String.make n 'x' in
      let ctx = Sha256.init () in
      Sha256.feed ctx msg;
      Alcotest.(check string)
        (Printf.sprintf "length %d" n)
        (Sha256.hex msg)
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 55; 56; 57; 63; 64; 65 ]

(* ---- HMAC RFC 4231 vectors ---- *)

let test_hmac_rfc4231_case1 () =
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There")

let test_hmac_rfc4231_case2 () =
  Alcotest.(check string) "case 2 (Jefe)"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  Alcotest.(check string) "case 3 (0xaa/0xdd)"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hmac_long_key () =
  (* RFC 4231 case 6: 131-byte key is hashed down *)
  Alcotest.(check string) "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "secret" and msg = "hello" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "valid tag" true (Hmac.verify ~key ~msg ~tag);
  Alcotest.(check bool) "wrong msg" false (Hmac.verify ~key ~msg:"hellO" ~tag);
  Alcotest.(check bool) "wrong key" false (Hmac.verify ~key:"Secret" ~msg ~tag);
  Alcotest.(check bool) "truncated tag" false
    (Hmac.verify ~key ~msg ~tag:(String.sub tag 0 16))

(* ---- the replaced implementations, kept as the reference ---- *)

(* The Int32 SHA-256, the string-building HMAC and the Printf hex encoder
   that the native-int code with HMAC midstates replaced, kept as they
   were (less the finalize-once guard), so the properties below check the
   rewrite against the old rules rather than against itself. *)
module Reference = struct
  let k =
    [|
      0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
      0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
      0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
      0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
      0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
      0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
      0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
      0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
      0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
      0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
      0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
    |]

  type ctx = {
    h : int32 array;
    block : Bytes.t;
    mutable block_len : int;
    mutable total_len : int64;
    w : int32 array;
  }

  let init () =
    {
      h =
        [|
          0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
          0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
        |];
      block = Bytes.create 64;
      block_len = 0;
      total_len = 0L;
      w = Array.make 64 0l;
    }

  let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
  let ( +% ) = Int32.add

  let compress ctx =
    let w = ctx.w in
    for i = 0 to 15 do
      w.(i) <- Bytes.get_int32_be ctx.block (4 * i)
    done;
    for i = 16 to 63 do
      let s0 =
        Int32.logxor
          (Int32.logxor (rotr w.(i - 15) 7) (rotr w.(i - 15) 18))
          (Int32.shift_right_logical w.(i - 15) 3)
      in
      let s1 =
        Int32.logxor
          (Int32.logxor (rotr w.(i - 2) 17) (rotr w.(i - 2) 19))
          (Int32.shift_right_logical w.(i - 2) 10)
      in
      w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
    done;
    let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) and d = ref ctx.h.(3) in
    let e = ref ctx.h.(4) and f = ref ctx.h.(5) and g = ref ctx.h.(6) and hh = ref ctx.h.(7) in
    for i = 0 to 63 do
      let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
      let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
      let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
      let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
      let maj =
        Int32.logxor
          (Int32.logxor (Int32.logand !a !b) (Int32.logand !a !c))
          (Int32.logand !b !c)
      in
      let temp2 = s0 +% maj in
      hh := !g;
      g := !f;
      f := !e;
      e := !d +% temp1;
      d := !c;
      c := !b;
      b := !a;
      a := temp1 +% temp2
    done;
    ctx.h.(0) <- ctx.h.(0) +% !a;
    ctx.h.(1) <- ctx.h.(1) +% !b;
    ctx.h.(2) <- ctx.h.(2) +% !c;
    ctx.h.(3) <- ctx.h.(3) +% !d;
    ctx.h.(4) <- ctx.h.(4) +% !e;
    ctx.h.(5) <- ctx.h.(5) +% !f;
    ctx.h.(6) <- ctx.h.(6) +% !g;
    ctx.h.(7) <- ctx.h.(7) +% !hh

  let feed ctx s =
    ctx.total_len <- Int64.add ctx.total_len (Int64.of_int (String.length s));
    let pos = ref 0 in
    let len = String.length s in
    while !pos < len do
      let take = min (64 - ctx.block_len) (len - !pos) in
      Bytes.blit_string s !pos ctx.block ctx.block_len take;
      ctx.block_len <- ctx.block_len + take;
      pos := !pos + take;
      if ctx.block_len = 64 then begin
        compress ctx;
        ctx.block_len <- 0
      end
    done

  let finalize ctx =
    let bit_len = Int64.mul ctx.total_len 8L in
    Bytes.set ctx.block ctx.block_len '\x80';
    ctx.block_len <- ctx.block_len + 1;
    if ctx.block_len > 56 then begin
      Bytes.fill ctx.block ctx.block_len (64 - ctx.block_len) '\x00';
      compress ctx;
      ctx.block_len <- 0
    end;
    Bytes.fill ctx.block ctx.block_len (64 - ctx.block_len) '\x00';
    Bytes.set_int64_be ctx.block 56 bit_len;
    compress ctx;
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      Bytes.set_int32_be out (4 * i) ctx.h.(i)
    done;
    Bytes.to_string out

  let digest s =
    let ctx = init () in
    feed ctx s;
    finalize ctx

  let to_hex raw =
    let buf = Buffer.create (2 * String.length raw) in
    String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) raw;
    Buffer.contents buf

  let mac ~key msg =
    let key = if String.length key > 64 then digest key else key in
    let key = key ^ String.make (64 - String.length key) '\x00' in
    let xor_with pad = String.mapi (fun i a -> Char.chr (Char.code a lxor Char.code key.[i])) pad in
    let inner = digest (xor_with (String.make 64 '\x36') ^ msg) in
    digest (xor_with (String.make 64 '\x5c') ^ inner)
end

(* ---- Sign ---- *)

let prng () = Fortress_util.Prng.create ~seed:2024

let test_sign_roundtrip () =
  let p = prng () in
  let sk, pk = Sign.generate p in
  let s = Sign.sign sk "attack at dawn" in
  Alcotest.(check bool) "verifies" true (Sign.verify pk ~msg:"attack at dawn" s);
  Alcotest.(check bool) "wrong msg rejected" false (Sign.verify pk ~msg:"attack at dusk" s)

let test_sign_cross_key_rejection () =
  let p = prng () in
  let sk1, _pk1 = Sign.generate p in
  let _sk2, pk2 = Sign.generate p in
  let s = Sign.sign sk1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Sign.verify pk2 ~msg:"msg" s)

let test_sign_forgery_rejected () =
  let p = prng () in
  let _sk, pk = Sign.generate p in
  for _ = 1 to 100 do
    let forged = Sign.forge p in
    Alcotest.(check bool) "forgery rejected" false (Sign.verify pk ~msg:"msg" forged)
  done

let test_sign_public_of_secret () =
  let p = prng () in
  let sk, pk = Sign.generate p in
  Alcotest.(check bool) "fingerprint matches" true
    (Sign.equal_public pk (Sign.public_of_secret sk))

let test_sign_distinct_keys () =
  let p = prng () in
  let _, pk1 = Sign.generate p in
  let _, pk2 = Sign.generate p in
  Alcotest.(check bool) "distinct" false (Sign.equal_public pk1 pk2)

(* ---- Nonce ---- *)

let test_nonce_unique_within_source () =
  let p = prng () in
  let src = Nonce.source p in
  let ns = List.init 1000 (fun _ -> Nonce.fresh src) in
  let distinct = List.sort_uniq Nonce.compare ns in
  Alcotest.(check int) "all distinct" 1000 (List.length distinct)

let test_nonce_unique_across_sources () =
  let p = prng () in
  let s1 = Nonce.source p and s2 = Nonce.source p in
  let a = Nonce.fresh s1 and b = Nonce.fresh s2 in
  Alcotest.(check bool) "different streams" false (Nonce.equal a b)

let test_nonce_string_roundtrip () =
  let p = prng () in
  let src = Nonce.source p in
  let a = Nonce.fresh src and b = Nonce.fresh src in
  Alcotest.(check bool) "string ids differ" false (Nonce.to_string a = Nonce.to_string b)

(* ---- the rewrite against the reference ---- *)

(* every length where the padding changes shape: one or two final blocks,
   the 0x80 byte alone in a block, a resumed digest's block boundaries *)
let padding_boundaries = [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 121; 127; 128; 129; 183; 184 ]

let gen_bytes len =
  QCheck.Gen.(string_size ~gen:(frequency [ (3, char); (1, oneofl [ '\x00'; '\xff' ]) ]) len)

let gen_message =
  QCheck.Gen.(gen_bytes (frequency [ (1, oneofl padding_boundaries); (1, int_range 0 300) ]))

let gen_key =
  QCheck.Gen.(gen_bytes (frequency [ (1, oneofl [ 0; 1; 32; 63; 64; 65; 150 ]); (2, int_range 0 150) ]))

let print_bytes = Reference.to_hex

(* a fixed-seed sample of the generator covers every boundary and both
   extreme bytes, so the properties below cannot silently miss them *)
let test_generator_reaches_boundaries () =
  let rand = Random.State.make [| 2024 |] in
  let sample = List.init 2000 (fun _ -> gen_message rand) in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "length %d drawn" n)
        true
        (List.exists (fun m -> String.length m = n) sample))
    [ 55; 56; 63; 64; 65; 119; 120; 128 ];
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "byte 0x%02x drawn" (Char.code c))
        true
        (List.exists (fun m -> String.contains m c) sample))
    [ '\x00'; '\xff' ]

(* consecutive pieces of [msg] of the given sizes, the rest last *)
let chunks msg sizes =
  let rec go pos = function
    | [] -> [ String.sub msg pos (String.length msg - pos) ]
    | n :: rest ->
        let n = min n (String.length msg - pos) in
        String.sub msg pos n :: go (pos + n) rest
  in
  go 0 sizes

let prop_digest_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"digest and chunked feed equal the reference"
    (QCheck.make
       ~print:QCheck.Print.(pair print_bytes (list int))
       QCheck.Gen.(pair gen_message (list_size (int_bound 5) (int_bound 130))))
    (fun (msg, sizes) ->
      let expected = Reference.digest msg in
      let ctx = Sha256.init () in
      List.iter (Sha256.feed ctx) (chunks msg sizes);
      Sha256.digest msg = expected && Sha256.finalize ctx = expected)

let prop_digest_from_matches_reference =
  QCheck.Test.make ~count:500 ~name:"digest_from resumes after its block"
    (QCheck.make ~print:QCheck.Print.(pair print_bytes print_bytes)
       QCheck.Gen.(pair (gen_bytes (return 64)) gen_message))
    (fun (block, msg) ->
      Sha256.digest_from (Sha256.midstate block) msg = Reference.digest (block ^ msg))

let prop_midstate_rejects_partial_blocks =
  QCheck.Test.make ~count:300 ~name:"midstate takes exactly one 64-byte block"
    (QCheck.make ~print:print_bytes QCheck.Gen.(gen_bytes (int_range 0 200)))
    (fun block ->
      match Sha256.midstate block with
      | _ -> String.length block = 64
      | exception Invalid_argument _ -> String.length block <> 64)

let prop_hmac_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"hmac equals the reference"
    (QCheck.make ~print:QCheck.Print.(pair print_bytes print_bytes)
       QCheck.Gen.(pair gen_key gen_message))
    (fun (key, msg) ->
      let expected = Reference.mac ~key msg in
      Hmac.mac ~key msg = expected && Hmac.verify ~key ~msg ~tag:expected)

let prop_to_hex_matches_reference =
  QCheck.Test.make ~count:500 ~name:"to_hex equals the reference"
    (QCheck.make ~print:String.escaped gen_message)
    (fun raw -> Sha256.to_hex raw = Reference.to_hex raw)

(* Signatures reach no output, so no digest pin would catch a wrong
   compression: the one-shot digests, the streaming context and the Int32
   reference must agree at every length of one and two final blocks and
   beyond, from the initial hash value and after a midstate. *)
let test_one_shot_matches_streaming_at_every_length () =
  let msg = String.init 300 (fun i -> Char.chr (((i * 131) + 7) land 255)) in
  let block = String.init 64 (fun i -> Char.chr (255 - (3 * i))) in
  let mid = Sha256.midstate block in
  let streamed pieces =
    let ctx = Sha256.init () in
    List.iter (Sha256.feed ctx) pieces;
    Sha256.to_hex (Sha256.finalize ctx)
  in
  for n = 0 to 300 do
    let m = String.sub msg 0 n in
    let expected = Reference.to_hex (Reference.digest m) in
    Alcotest.(check string) (Printf.sprintf "digest, %d bytes" n) expected
      (Sha256.to_hex (Sha256.digest m));
    Alcotest.(check string) (Printf.sprintf "streamed, %d bytes" n) expected (streamed [ m ]);
    let expected = Reference.to_hex (Reference.digest (block ^ m)) in
    Alcotest.(check string) (Printf.sprintf "digest_from, %d bytes" n) expected
      (Sha256.to_hex (Sha256.digest_from mid m));
    Alcotest.(check string)
      (Printf.sprintf "streamed after the block, %d bytes" n)
      expected
      (streamed [ block; m ])
  done

(* ---- MAC inputs against the Printf builders they replaced ---- *)

module Pb = Fortress_replication.Pb
module Smr = Fortress_replication.Smr

(* the payload builders as they were, kept as the reference *)
module Printf_payload = struct
  let pb_reply ~id ~response ~server_index =
    Printf.sprintf "pb-reply|%s|%s|%d" id response server_index

  let smr_reply ~id ~response ~server_index ~view =
    Printf.sprintf "smr-reply|%s|%s|%d|%d" id response server_index view

  let request_digest ~id ~cmd = Sha256.digest (Printf.sprintf "%s|%s" id cmd)

  let over_sign ~(reply : Pb.reply) ~proxy_index =
    Printf.sprintf "fortress-oversign|%s|%s|%d|%s|%d" reply.Pb.request_id reply.Pb.response
      reply.Pb.server_index
      (Sign.signature_to_hex reply.Pb.signature)
      proxy_index

  let smr_over_sign ~(reply : Smr.reply) ~proxy_index =
    Printf.sprintf "fortress-smr-oversign|%s|%s|%d|%d|%s|%d" reply.Smr.request_id
      reply.Smr.response reply.Smr.server_index reply.Smr.view
      (Sign.signature_to_hex reply.Smr.signature)
      proxy_index
end

(* ids and responses: empty, holding the separator, non-ASCII, or plain *)
let gen_text =
  QCheck.Gen.(
    let plain = string_size ~gen:printable (int_bound 12) in
    frequency
      [
        (1, return "");
        (1, map (fun (a, b) -> a ^ "|" ^ b) (pair plain plain));
        (1, string_size ~gen:(map Char.chr (int_range 128 255)) (int_range 1 12));
        (2, plain);
      ])

(* int fields: negative, 0, the extremes, or anything *)
let gen_int_field =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0; max_int; min_int ]);
        (2, int_range (-1_000_000) (-1));
        (2, small_nat);
        (1, int);
      ])

(* a fixed-seed sample of the field generators holds every edge case *)
let test_payload_generators_reach_edges () =
  let rand = Random.State.make [| 2024 |] in
  let texts = List.init 500 (fun _ -> gen_text rand) in
  let ints = List.init 500 (fun _ -> gen_int_field rand) in
  List.iter
    (fun (what, p) -> Alcotest.(check bool) what true (List.exists p texts))
    [
      ("empty text", String.equal "");
      ("text holding |", fun s -> String.contains s '|');
      ("non-ASCII text", String.exists (fun c -> Char.code c >= 128));
    ];
  List.iter
    (fun (what, p) -> Alcotest.(check bool) what true (List.exists p ints))
    [ ("negative", fun n -> n < 0); ("zero", ( = ) 0); ("max_int", ( = ) max_int) ]

let prop_payloads_match_printf =
  QCheck.Test.make ~count:1000 ~name:"each payload builder equals its Printf reference"
    (QCheck.make
       ~print:
         QCheck.Print.(
           pair (pair string string) (quad int int int int))
       QCheck.Gen.(
         pair (pair gen_text gen_text)
           (quad gen_int_field gen_int_field gen_int_field (int_bound 1000))))
    (fun ((id, response), (server_index, view, proxy_index, seed)) ->
      let signature = Sign.forge (Fortress_util.Prng.create ~seed) in
      let pb = { Pb.request_id = id; response; server_index; signature } in
      let smr = { Smr.request_id = id; response; server_index; view; signature } in
      Pb.reply_payload ~id ~response ~server_index
      = Printf_payload.pb_reply ~id ~response ~server_index
      && Smr.reply_payload ~id ~response ~server_index ~view
         = Printf_payload.smr_reply ~id ~response ~server_index ~view
      && Smr.request_digest ~id ~cmd:response = Printf_payload.request_digest ~id ~cmd:response
      && Fortress_core.Message.over_sign_payload ~reply:pb ~proxy_index
         = Printf_payload.over_sign ~reply:pb ~proxy_index
      && Fortress_core.Smr_fortress.over_sign_payload ~reply:smr ~proxy_index
         = Printf_payload.smr_over_sign ~reply:smr ~proxy_index)

let test_payload_ints () =
  List.iter
    (fun n ->
      let p = Payload.create "n" ~fields:(Payload.int_width n) in
      Payload.add_int p n;
      Alcotest.(check string) (string_of_int n) (Printf.sprintf "n|%d" n) (Payload.contents p))
    [ 0; 1; -1; 9; 10; -9; -10; 99; 100; -100; max_int; min_int; max_int - 1; min_int + 1 ]

let test_payload_width_is_exact () =
  let p = Payload.create "t" ~fields:(Payload.str_width "ab") in
  Alcotest.check_raises "a field short"
    (Invalid_argument "Payload: fewer bytes than the declared fields") (fun () ->
      ignore (Payload.contents p));
  Payload.add_str p "ab";
  Alcotest.check_raises "a field past the width"
    (Invalid_argument "Payload: more bytes than the declared fields") (fun () ->
      Payload.add_int p 0);
  Alcotest.(check string) "filled" "t|ab" (Payload.contents p)

(* ---- what a signature costs and what a key keeps alive ---- *)

(* minor-heap words per call of [f], over [n] calls after one warm-up *)
let minor_words_per_call n f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_words what words bound =
  Alcotest.(check bool) (Printf.sprintf "%s: %.1f minor words <= %g" what words bound) true
    (words <= bound)

let test_digest_allocation () =
  (* the 32-byte result alone: no context, schedule, block or boxed word *)
  let msg = String.make 120 'x' in
  check_words "120-byte digest" (minor_words_per_call 1000 (fun () -> Sha256.digest msg)) 8.0

let test_sign_verify_allocation () =
  (* the inner and the outer digest's results *)
  let sk, pk = Sign.generate (prng ()) in
  let msg = String.make 120 'x' in
  let signature = Sign.sign sk msg in
  check_words "120-byte sign" (minor_words_per_call 1000 (fun () -> Sign.sign sk msg)) 32.0;
  check_words "120-byte verify"
    (minor_words_per_call 1000 (fun () -> Sign.verify pk ~msg signature))
    32.0

let test_signature_to_hex_allocation () =
  let sk, _ = Sign.generate (prng ()) in
  let s = Sign.sign sk "msg" in
  check_words "signature_to_hex" (minor_words_per_call 1000 (fun () -> Sign.signature_to_hex s)) 16.0

let test_keys_die_with_their_deployment () =
  (* a key lives in the deployment that holds it: building and dropping a
     thousand stacks leaves no key behind *)
  let module Fortress = Fortress_exp.Stack_driver.Fortress in
  let module Smr = Fortress_exp.Stack_driver.Smr in
  let build seed =
    ignore (Sys.opaque_identity (Fortress.make ~chi:256 ~seed));
    ignore (Sys.opaque_identity (Smr.make ~chi:256 ~seed))
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  (* the first build initialises whatever builds share *)
  build 0;
  let before = live_words () in
  for seed = 1 to 500 do
    build seed
  done;
  let grown = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d live words more after 500 fortress + 500 SMR builds < 5000" grown)
    true (grown < 5000)

let test_sign_across_domains () =
  let msg = "signed on one domain, verified on another" in
  let sk, pk = Sign.generate (prng ()) in
  let s = Domain.join (Domain.spawn (fun () -> Sign.sign sk msg)) in
  Alcotest.(check bool) "main-domain key, signed elsewhere" true (Sign.verify pk ~msg s);
  let pk2, s2 =
    Domain.join
      (Domain.spawn (fun () ->
           let sk2, pk2 = Sign.generate (Fortress_util.Prng.create ~seed:7) in
           (pk2, Sign.sign sk2 msg)))
  in
  Alcotest.(check bool) "key made elsewhere verifies here" true (Sign.verify pk2 ~msg s2);
  Alcotest.(check bool) "and still only under its own key" false (Sign.verify pk ~msg s2)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"sha256 is 32 bytes" ~count:200 string (fun s ->
        String.length (Sha256.digest s) = 32);
    Test.make ~name:"sha256 deterministic" ~count:200 string (fun s ->
        Sha256.digest s = Sha256.digest s);
    Test.make ~name:"hmac verify accepts own tag" ~count:200 (pair string string)
      (fun (key, msg) -> Hmac.verify ~key ~msg ~tag:(Hmac.mac ~key msg));
    Test.make ~name:"hmac differs per key" ~count:200 (triple string string string)
      (fun (k1, k2, msg) ->
        (* RFC 2104 pads short keys with zero bytes, so keys differing only
           by trailing NULs are the same key; compare after normalization *)
        let normalize k =
          let k = if String.length k > 64 then Sha256.digest k else k in
          k ^ String.make (64 - String.length k) '\x00'
        in
        assume (normalize k1 <> normalize k2);
        (* collision would be a catastrophic HMAC break *)
        Hmac.mac ~key:k1 msg <> Hmac.mac ~key:k2 msg);
    prop_digest_matches_reference;
    prop_digest_from_matches_reference;
    prop_midstate_rejects_partial_blocks;
    prop_hmac_matches_reference;
    prop_to_hex_matches_reference;
    prop_payloads_match_printf;
  ]

let () =
  Alcotest.run "fortress_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty vector" `Quick test_sha256_empty;
          Alcotest.test_case "abc vector" `Quick test_sha256_abc;
          Alcotest.test_case "two-block vector" `Quick test_sha256_two_blocks;
          Alcotest.test_case "million a vector" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming" `Quick test_sha256_streaming;
          Alcotest.test_case "streaming across blocks" `Quick test_sha256_streaming_across_blocks;
          Alcotest.test_case "finalize once" `Quick test_sha256_finalize_once;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_length_55_56_57;
          Alcotest.test_case "one-shot equals streaming at every length" `Quick
            test_one_shot_matches_streaming_at_every_length;
        ] );
      ( "payload",
        [
          Alcotest.test_case "ints render as %d" `Quick test_payload_ints;
          Alcotest.test_case "width is exact" `Quick test_payload_width_is_exact;
          Alcotest.test_case "generators reach the edge cases" `Quick
            test_payload_generators_reach_edges;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 case 6 long key" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "sign",
        [
          Alcotest.test_case "sign/verify round-trip" `Quick test_sign_roundtrip;
          Alcotest.test_case "cross-key rejection" `Quick test_sign_cross_key_rejection;
          Alcotest.test_case "forgery rejected" `Quick test_sign_forgery_rejected;
          Alcotest.test_case "public_of_secret" `Quick test_sign_public_of_secret;
          Alcotest.test_case "distinct keys" `Quick test_sign_distinct_keys;
          Alcotest.test_case "across domains" `Quick test_sign_across_domains;
          Alcotest.test_case "keys die with their deployment" `Quick
            test_keys_die_with_their_deployment;
        ] );
      ( "cost",
        [
          Alcotest.test_case "digest allocation" `Quick test_digest_allocation;
          Alcotest.test_case "sign and verify allocation" `Quick test_sign_verify_allocation;
          Alcotest.test_case "signature_to_hex allocation" `Quick
            test_signature_to_hex_allocation;
        ] );
      ( "nonce",
        [
          Alcotest.test_case "unique within source" `Quick test_nonce_unique_within_source;
          Alcotest.test_case "unique across sources" `Quick test_nonce_unique_across_sources;
          Alcotest.test_case "string ids" `Quick test_nonce_string_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest qcheck_tests
        @ [
            Alcotest.test_case "generator reaches the padding boundaries" `Quick
              test_generator_reaches_boundaries;
          ] );
    ]
