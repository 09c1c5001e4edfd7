(** Minimal JSON tree, emitter and parser.

    Kept dependency-free so the observability layer can serialize events
    without pulling a JSON package into the substrate libraries. The parser
    accepts standard JSON (objects, arrays, strings with escapes, numbers,
    booleans, null) and is used by the [obs] trace summarizer and the
    round-trip tests. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Integral [Num] values print without a
    decimal point so counters stay readable. *)

val output : out_channel -> t -> unit
(** [output oc v] writes [to_string v], emptying its buffer between elements. *)

(** {2 Emitter rules} The one escaping rule and one number rule of every
    rendering, for writers that build no tree. *)

val add_string : Buffer.t -> string -> unit
(** Quoted; ['"'], ['\\'] and bytes below 0x20 escaped. *)

val add_num : Buffer.t -> float -> unit
(** Integral values below 1e15 in magnitude as digits ([-0.0] as ["-0"]),
    NaN and infinities as [null], anything else as ["%.12g"]: through
    {!add_g12} when it takes its [Fast] path, through printf otherwise. *)

type g12_path =
  | Fast  (** written without printf *)
  | Out_of_range  (** [|x|] outside [\[1e-4, 1e12)], or NaN *)
  | Misjudged  (** below 1, [log10] put the decimal exponent one off *)
  | Near_tie  (** the scaled fraction within [2^-12] of [1/2] *)
  | Carry  (** rounding reaches [1e12]: exponent notation *)

val add_g12 : Buffer.t -> float -> g12_path
(** [add_g12 buf x] appends ["%.12g"] of [x] without printf and returns
    [Fast], or appends nothing and names the case it leaves to printf. The
    12 significant digits are the nearest integer to one product [|x| *
    10^(11-e)], taken only where that product cannot round otherwise than
    the exact value. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] is [add_num buf (float_of_int n)]. *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing whitespace is allowed, trailing
    garbage is an error. The error string carries a character offset. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** [member key (Obj _)] is the value bound to [key], if any. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
val bool : t -> bool option
val list : t -> t list option
