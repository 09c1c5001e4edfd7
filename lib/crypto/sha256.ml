(* FIPS 180-4 SHA-256 over native ints. A 32-bit word lives in the low half
   of an OCaml int and is masked back to 32 bits after each addition, so
   no state or schedule word is ever boxed. Each Σ/σ function takes its
   rotations from the word doubled into the high half ([x lor (x lsl 32)]):
   a rotation right by [n] is then a plain shift by [n], and the three
   terms share one mask. The 63-bit int drops the doubled word's top bit,
   which only a rotation by 32 would read. The message is buffered into
   64-byte blocks; [finalize] applies the 0x80 / length padding. *)

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

type ctx = {
  h : int array;
  block : Bytes.t;
  mutable block_len : int;
  mutable total_len : int;  (* bytes absorbed, a resumed block included *)
  mutable finished : bool;
  w : int array;
}

(* a context whose first [total_len] bytes are already folded into [h] *)
let resume h ~total_len =
  {
    h = Array.copy h;
    block = Bytes.create 64;
    block_len = 0;
    total_len;
    finished = false;
    w = Array.make 64 0;
  }

let init () = resume iv ~total_len:0

(* Σ0 and Σ1 of the rounds, σ0 and σ1 of the schedule *)
let[@inline] big_sigma0 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)) land mask

let[@inline] big_sigma1 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)) land mask

let[@inline] small_sigma0 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land mask

let[@inline] small_sigma1 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)) land mask

(* fold the 64-byte block at [src.[off]] into [ctx.h] *)
let compress ctx src off =
  let w = ctx.w and h = ctx.h in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be src (off + (4 * i))) land mask
  done;
  for i = 16 to 63 do
    w.(i) <- (w.(i - 16) + small_sigma0 w.(i - 15) + w.(i - 7) + small_sigma1 w.(i - 2)) land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !hh + big_sigma1 !e + ch + k.(i) + w.(i) in
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
      compress ctx ctx.block 0;
      ctx.block_len <- 0
    end
  end;
  (* whole blocks are compressed straight from the input *)
  while len - !pos >= 64 do
    compress ctx src !pos;
    pos := !pos + 64
  done;
  let rest = len - !pos in
  Bytes.blit src !pos ctx.block ctx.block_len rest;
  ctx.block_len <- ctx.block_len + rest

let finalize ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finished <- true;
  let block = ctx.block in
  Bytes.set block ctx.block_len '\x80';
  let used = ctx.block_len + 1 in
  if used > 56 then begin
    Bytes.fill block used (64 - used) '\x00';
    compress ctx block 0;
    Bytes.fill block 0 56 '\x00'
  end
  else Bytes.fill block used (56 - used) '\x00';
  Bytes.set_int64_be block 56 (Int64.of_int (ctx.total_len lsl 3));
  compress ctx block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let midstate block =
  if String.length block <> 64 then invalid_arg "Sha256.midstate: block must be 64 bytes";
  let ctx = init () in
  compress ctx (Bytes.unsafe_of_string block) 0;
  ctx.h

let digest_phase = Fortress_prof.Profiler.register "crypto.sha256"

(* the digest of a message whose first [total_len] bytes are folded into
   [h], resumed over the rest [s] *)
let digest_of h ~total_len s =
  let ctx = resume h ~total_len in
  feed ctx s;
  finalize ctx

let profiled h ~total_len s =
  if Fortress_prof.Profiler.is_enabled () then
    Fortress_prof.Profiler.record digest_phase (fun () -> digest_of h ~total_len s)
  else digest_of h ~total_len s

let digest s = profiled iv ~total_len:0 s
let digest_from mid s = profiled mid ~total_len:64 s

let hex_digits = "0123456789abcdef"

let to_hex raw =
  let out = Bytes.create (2 * String.length raw) in
  for i = 0 to String.length raw - 1 do
    let c = Char.code raw.[i] in
    Bytes.set out (2 * i) hex_digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string out

let hex s = to_hex (digest s)
