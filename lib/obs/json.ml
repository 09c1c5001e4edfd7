type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- emitter ---- *)

(* One escaping and one number rule, for the tree and Event.write. Fast paths keep the
   general case's bytes: a string with nothing to escape is copied whole (String.exists
   would allocate a closure), an integral number below 1e15 is written as digits, and
   most other numbers below 1e12 skip printf too (add_g12). *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20
let rec plain s i =
  i = String.length s || ((not (needs_escape (String.unsafe_get s i))) && plain s (i + 1))

let add_string buf s =
  Buffer.add_char buf '"';
  if plain s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* the primitive behind Printf's %g: the same bytes, no format to interpret *)
external format_float : string -> float -> string = "caml_format_float"

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* ---- "%.12g" without printf ----

   For 1e-4 <= |x| < 1e12 the decimal exponent e is in -4..11, where %g
   prints fixed notation. y = |x| * 10^(11-e) is one correctly rounded
   product (10^0..10^15 are exact doubles), and y < 2^40 puts it within
   2^-14 of the exact product, so unless y's fraction is within 2^-12 of
   1/2, the 12 significant digits %g rounds to are y's nearest integer.
   Everything else is printf's, exact ties too (printf rounds them to
   even). For |x| >= 1, e comes from comparisons with the exact powers;
   below 1, where no power of ten is a double, from log10, which may put
   it one off: the range check on y catches that. The tables are
   constants: Par runs writers on several domains. *)

type g12_path = Fast | Out_of_range | Misjudged | Near_tie | Carry

let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15 |]

let tie_band = 0x1p-12

(* "00" .. "99": the two digits of q at 2q and 2q + 1 *)
let digit_pairs =
  String.init 200 (fun i -> Char.unsafe_chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* digits i and i + 1 of the 12-digit m, which pair q holds; digits from
   [stop] on are not written, and a '.' goes before digit [point] *)
let add_pair buf q i ~point ~stop =
  if i < stop then begin
    if i = point then Buffer.add_char buf '.';
    Buffer.add_char buf (String.unsafe_get digit_pairs (2 * q));
    if i + 1 < stop then begin
      if i + 1 = point then Buffer.add_char buf '.';
      Buffer.add_char buf (String.unsafe_get digit_pairs ((2 * q) + 1))
    end
  end

(* the 12-digit m, most significant digit first, two digits per division *)
let add_sig buf m ~point ~stop =
  let hi = m / 1_000_000 and lo = m mod 1_000_000 in
  add_pair buf (hi / 10_000) 0 ~point ~stop;
  add_pair buf (hi / 100 mod 100) 2 ~point ~stop;
  add_pair buf (hi mod 100) 4 ~point ~stop;
  add_pair buf (lo / 10_000) 6 ~point ~stop;
  add_pair buf (lo / 100 mod 100) 8 ~point ~stop;
  add_pair buf (lo mod 100) 10 ~point ~stop

let rec significant m s = if m mod 10 = 0 then significant (m / 10) (s - 1) else s

(* m's digits at exponent e as %g's fixed notation: no trailing zero in
   the fraction, no point without one *)
let add_fixed buf m e =
  let s = significant m 12 in
  if e >= 0 then add_sig buf m ~point:(e + 1) ~stop:(Int.max s (e + 1))
  else begin
    Buffer.add_string buf "0.";
    for _ = 2 to -e do
      Buffer.add_char buf '0'
    done;
    add_sig buf m ~point:12 ~stop:s
  end

let add_g12 buf x =
  let ax = Float.abs x in
  if not (ax >= 1e-4 && ax < 1e12) then Out_of_range
  else
    let e =
      if ax < 1.0 then Int.max (-4) (int_of_float (Float.floor (Float.log10 ax)))
      else begin
        let e = ref 0 in
        while !e < 11 && ax >= Array.unsafe_get pow10 (!e + 1) do
          incr e
        done;
        !e
      end
    in
    let y = ax *. Array.unsafe_get pow10 (11 - e) in
    if y < 1e11 || y >= 1e12 then Misjudged
    else
      let n = int_of_float y in
      let frac = y -. float_of_int n in
      if Float.abs (frac -. 0.5) < tie_band then Near_tie
      else
        let m = if frac > 0.5 then n + 1 else n in
        if m = 1_000_000_000_000 && e = 11 then Carry
        else begin
          if x < 0.0 then Buffer.add_char buf '-';
          (* a carry into a 13th digit is 10^11 one exponent up *)
          if m < 1_000_000_000_000 then add_fixed buf m e
          else add_fixed buf 100_000_000_000 (e + 1);
          Fast
        end

let rec add_num buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    (* "%.0f" wrote -0.0 as "-0"; any other such value is an exact int *)
    if Float.sign_bit x && x = 0.0 then Buffer.add_string buf "-0" else add_int buf (int_of_float x)
  else if Float.is_nan x || Float.abs x = Float.infinity then
    (* JSON has no NaN/inf; null is the least-surprising degradation *)
    Buffer.add_string buf "null"
  else
    match add_g12 buf x with
    | Fast -> ()
    | Out_of_range | Misjudged | Near_tie | Carry ->
        Buffer.add_string buf (format_float "%.12g" x)

and add_int buf n =
  if n > -1_000_000_000_000_000 && n < 1_000_000_000_000_000 then begin
    if n < 0 then Buffer.add_char buf '-';
    add_digits buf (abs n)
  end
  else add_num buf (float_of_int n)

(* [spill] runs after each element: a streaming writer empties the buffer *)
let rec add ~spill buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s -> add_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add ~spill buf item;
          spill buf)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k; Buffer.add_char buf ':';
          add ~spill buf v;
          spill buf)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add ~spill:ignore buf v;
  Buffer.contents buf

let output oc v =
  let buf = Buffer.create 65536 in
  let spill b = if Buffer.length b >= 65536 then (Buffer.output_buffer oc b; Buffer.clear b) in
  add ~spill buf v;
  Buffer.output_buffer oc buf

(* ---- parser ---- *)

exception Fail of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    (* strict hex only: int_of_string's 0x syntax would raise Failure past
       the parser's own exception, and also tolerates '_' separators *)
    let v = ref 0 in
    for k = 0 to 3 do
      let d =
        match s.[!pos + k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ ->
            pos := !pos + k;
            (* the offset names the offending digit *)
            fail "invalid \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | None -> fail "truncated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  let code = hex4 () in
                  let code =
                    (* combine a surrogate pair when one follows *)
                    if code >= 0xD800 && code <= 0xDBFF && !pos + 6 <= n
                       && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
                      pos := !pos + 2;
                      let low = hex4 () in
                      if low >= 0xDC00 && low <= 0xDFFF then
                        0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00))
                      else fail "invalid low surrogate"
                    end
                    else code
                  in
                  if Uchar.is_valid code then Buffer.add_utf_8_uchar buf (Uchar.of_int code)
                  else Buffer.add_utf_8_uchar buf Uchar.rep
              | _ ->
                  (* point at the offending escape character *)
                  decr pos;
                  fail "unknown escape"));
          go ()
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "at %d: %s" at msg)

(* ---- accessors ---- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num x -> Some x | _ -> None

let int = function
  | Num x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
let list = function List items -> Some items | _ -> None
