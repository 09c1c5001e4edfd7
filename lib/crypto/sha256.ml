(* FIPS 180-4 SHA-256 over native ints. A 32-bit word lives in the low half
   of an OCaml int and is masked back to 32 bits where it is stored, so no
   state or schedule word is ever boxed. Each Σ/σ function takes its
   rotations from the word doubled into the high half ([x lor (x lsl 32)]):
   a rotation right by [n] is then a plain shift by [n]. The 63-bit int
   drops the doubled word's top bit, which only a rotation by 32 would
   read. The one-shot digests compress whole blocks straight from the
   message and pad the rest in a per-domain tail; the streaming context
   buffers its input into 64-byte blocks. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
    0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
    0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
    0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
    0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
    0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
    0xc67178f2;
  |]

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let mask = 0xffffffff

type midstate = int array

(* big-endian 32-bit loads and stores with no bounds check: every caller
   hands over whole blocks *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] load_be b off =
  let x = get32u b off in
  Int32.to_int (if Sys.big_endian then x else swap32 x) land mask

let[@inline] store_be b off v =
  let x = Int32.of_int v in
  set32u b off (if Sys.big_endian then x else swap32 x)

(* Σ0 and Σ1 of the rounds, σ0 and σ1 of the schedule. Each takes a
   32-bit word and leaves bits above 32 set: every sum they enter is
   masked, and the low 32 bits of a sum depend only on the low 32 bits of
   its terms. *)
let[@inline] big_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)

let[@inline] big_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)

let[@inline] small_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)

(* fold the 64-byte block at [src.[off]] into the chaining value [h], with
   [w] (64 words) as the message schedule *)
let compress h w src off =
  for i = 0 to 15 do
    Array.unsafe_set w i (load_be src (off + (4 * i)))
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16)
       + small_sigma0 (Array.unsafe_get w (i - 15))
       + Array.unsafe_get w (i - 7)
       + small_sigma1 (Array.unsafe_get w (i - 2)))
      land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !hh + big_sigma1 !e + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    let t2 = big_sigma0 !a + maj in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* The last [rest] < 64 bytes of a [total]-byte message sit at the start of
   the 128-byte [tail]: append the 0x80 byte, the zeros and the bit length,
   fold the one or two padded blocks into [h] and return the digest. *)
let finish h w tail ~rest ~total =
  Bytes.set tail rest '\x80';
  let last = if rest < 56 then 64 else 128 in
  Bytes.fill tail (rest + 1) (last - 9 - rest) '\x00';
  let bits = total lsl 3 in
  for i = 0 to 7 do
    Bytes.set tail (last - 1 - i) (Char.unsafe_chr ((bits lsr (8 * i)) land 0xff))
  done;
  compress h w tail 0;
  if last = 128 then compress h w tail 64;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    store_be out (4 * i) h.(i)
  done;
  Bytes.unsafe_to_string out

(* ---- the streaming context ---- *)

type ctx = {
  h : int array;
  block : Bytes.t;  (* 64 bytes of buffered input, 64 more for [finish] *)
  mutable block_len : int;
  mutable total_len : int;
  mutable finished : bool;
  w : int array;
}

let init () =
  {
    h = Array.copy iv;
    block = Bytes.create 128;
    block_len = 0;
    total_len = 0;
    finished = false;
    w = Array.make 64 0;
  }

let feed ctx s =
  if ctx.finished then invalid_arg "Sha256.feed: context already finalized";
  let len = String.length s in
  let src = Bytes.unsafe_of_string s in
  ctx.total_len <- ctx.total_len + len;
  let pos = ref 0 in
  (* top up a partly filled block first *)
  if ctx.block_len > 0 then begin
    let take = min (64 - ctx.block_len) len in
    Bytes.blit src 0 ctx.block ctx.block_len take;
    ctx.block_len <- ctx.block_len + take;
    pos := take;
    if ctx.block_len = 64 then begin
      compress ctx.h ctx.w ctx.block 0;
      ctx.block_len <- 0
    end
  end;
  (* whole blocks are compressed straight from the input *)
  while len - !pos >= 64 do
    compress ctx.h ctx.w src !pos;
    pos := !pos + 64
  done;
  let rest = len - !pos in
  Bytes.blit src !pos ctx.block ctx.block_len rest;
  ctx.block_len <- ctx.block_len + rest

let finalize ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finished <- true;
  finish ctx.h ctx.w ctx.block ~rest:ctx.block_len ~total:ctx.total_len

(* ---- one-shot digests, with no context ---- *)

(* Each domain keeps one chaining value, schedule and tail for its one-shot
   digests. A digest never runs inside another on the same domain (no
   signal handler or finaliser computes one), so one set suffices, and a
   digest allocates only its 32-byte result. *)
type scratch = { sh : int array; sw : int array; stail : Bytes.t }

let scratch =
  Domain.DLS.new_key (fun () ->
      { sh = Array.make 8 0; sw = Array.make 64 0; stail = Bytes.create 128 })

(* the digest of a message whose first [total_len] bytes are folded into
   [h0], resumed over the rest [s] *)
let digest_of h0 ~total_len s =
  let { sh = h; sw = w; stail = tail } = Domain.DLS.get scratch in
  for i = 0 to 7 do
    Array.unsafe_set h i (Array.unsafe_get h0 i)
  done;
  let src = Bytes.unsafe_of_string s in
  let len = String.length s in
  let whole = len - (len land 63) in
  let off = ref 0 in
  while !off < whole do
    compress h w src !off;
    off := !off + 64
  done;
  Bytes.blit src whole tail 0 (len - whole);
  finish h w tail ~rest:(len - whole) ~total:(total_len + len)

let midstate block =
  if String.length block <> 64 then invalid_arg "Sha256.midstate: block must be 64 bytes";
  let h = Array.copy iv in
  compress h (Domain.DLS.get scratch).sw (Bytes.unsafe_of_string block) 0;
  h

let digest_phase = Fortress_prof.Profiler.register "crypto.sha256"

let profiled h ~total_len s =
  if Fortress_prof.Profiler.is_enabled () then
    Fortress_prof.Profiler.record digest_phase (fun () -> digest_of h ~total_len s)
  else digest_of h ~total_len s

let digest s = profiled iv ~total_len:0 s
let digest_from mid s = profiled mid ~total_len:64 s

let hex_digits = "0123456789abcdef"

let blit_hex raw dst off =
  for i = 0 to String.length raw - 1 do
    let c = Char.code (String.unsafe_get raw i) in
    Bytes.set dst (off + (2 * i)) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.set dst (off + (2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done

let to_hex raw =
  let out = Bytes.create (2 * String.length raw) in
  blit_hex raw out 0;
  Bytes.unsafe_to_string out

let hex s = to_hex (digest s)
