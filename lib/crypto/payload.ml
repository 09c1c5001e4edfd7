type t = { buf : Bytes.t; mutable pos : int }

let str_width s = 1 + String.length s
let hex_width raw = 1 + (2 * String.length raw)

(* the decimal digits of a non-positive [m]. Ints are counted and written
   on the negative side, where min_int exists and -min_int does not. *)
let rec digits m acc = if m > -10 then acc else digits (m / 10) (acc + 1)
let decimal_width n = if n < 0 then 1 + digits n 1 else digits (-n) 1
let int_width n = 1 + decimal_width n

let create tag ~fields =
  let buf = Bytes.create (String.length tag + fields) in
  Bytes.blit_string tag 0 buf 0 (String.length tag);
  { buf; pos = String.length tag }

(* write the separator of a [width]-byte field; return where it ends *)
let open_field t width =
  let stop = t.pos + 1 + width in
  if stop > Bytes.length t.buf then invalid_arg "Payload: more bytes than the declared fields";
  Bytes.unsafe_set t.buf t.pos '|';
  t.pos <- t.pos + 1;
  stop

let add_str t s =
  let stop = open_field t (String.length s) in
  Bytes.blit_string s 0 t.buf t.pos (String.length s);
  t.pos <- stop

let add_int t n =
  let stop = open_field t (decimal_width n) in
  let first = if n < 0 then t.pos + 1 else t.pos in
  if n < 0 then Bytes.unsafe_set t.buf t.pos '-';
  (* right to left, from the non-positive [m] *)
  let m = ref (if n < 0 then n else -n) in
  for i = stop - 1 downto first do
    Bytes.unsafe_set t.buf i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  t.pos <- stop

let add_hex t raw =
  let stop = open_field t (2 * String.length raw) in
  Sha256.blit_hex raw t.buf t.pos;
  t.pos <- stop

let contents t =
  if t.pos <> Bytes.length t.buf then invalid_arg "Payload: fewer bytes than the declared fields";
  Bytes.unsafe_to_string t.buf
