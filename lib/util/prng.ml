(* The SplitMix64 state lives in 8 bytes, read and written by the
   compiler's unboxed primitives, so a draw neither boxes the state nor
   the value it returns to a caller in this module. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))
let copy t = Bytes.copy t

(* advance by the gamma and return the mixed state: every draw below *)
let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let bits64 t = next t
let split t = of_state (mix (next t))

(* SplitMix64 advances by a fixed gamma per draw, so the state feeding the
   n-th [split] is [state + n*gamma]: the n-th child stream is a pure
   function of (state, n). This is what makes parallel trial scheduling
   seed-stable — a worker derives trial n's generator directly from the
   trial index, never from how many splits other workers performed. *)
let split_nth t n =
  if n <= 0 then invalid_arg "Prng.split_nth: n must be positive";
  let s = Int64.add (get64 t 0) (Int64.mul golden_gamma (Int64.of_int n)) in
  of_state (mix (mix s))

(* Draw uniformly from [0, bound) by rejection, avoiding modulo bias. The
   63-bit v lies in the block of [bound] values starting at v - v mod
   bound; v is rejected when that block is the last one, which holds
   max_int64 and may be cut short, i.e. when the block starts past
   max_int64 - bound. Those are exactly the draws v >= max_int64 -
   max_int64 mod bound, here found with one division per draw and no
   closure. *)
let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let b = Int64.of_int bound in
  let r = ref (-1) in
  while !r < 0 do
    let v = Int64.shift_right_logical (next t) 1 in
    let m = Int64.rem v b in
    if Int64.sub v m <= Int64.sub Int64.max_int b then r := Int64.to_int m
  done;
  !r

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t ~bound:(hi - lo + 1)

let[@inline] unit_float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53
let float t = unit_float t
let float_in_range t ~lo ~hi = lo +. ((hi -. lo) *. unit_float t)
let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1.0 -. unit_float t in
  -.log u /. rate

let geometric t ~p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Prng.geometric: p must be in (0, 1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. unit_float t in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t ~bound:(Array.length a))

(* Floyd's algorithm: O(k) expected draws, uniform over k-subsets. *)
let sample_without_replacement t ~k ~n =
  if k < 0 || n < 0 then invalid_arg "Prng.sample_without_replacement: negative argument";
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  let seen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  for i = 0 to k - 1 do
    let j = n - k + i in
    let v = int t ~bound:(j + 1) in
    let pick = if Hashtbl.mem seen v then j else v in
    Hashtbl.replace seen pick ();
    out.(i) <- pick
  done;
  out
