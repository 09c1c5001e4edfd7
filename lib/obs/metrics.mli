(** Metrics registry: named counters and fixed-bucket histograms.

    Handles are obtained once (registering the metric on first lookup) and
    then updated through field mutation only, so [incr] and [observe] on a
    held handle allocate nothing — safe for the probe/message hot paths.
    Histograms reuse {!Fortress_util.Histogram}. *)

type t

type counter
type histogram

val create : unit -> t

(** {2 Registration — idempotent per name}

    Looking a name up again returns the same handle. Registering a name that
    already exists with a different metric kind raises [Invalid_argument]. *)

val counter : t -> string -> counter

val histogram :
  t -> ?log_scale:bool -> lo:float -> hi:float -> bins:int -> string -> histogram
(** Linear bins by default; [log_scale] requires [0 < lo < hi]. The shape
    arguments are only consulted on first registration. *)

(** {2 Hot-path updates} *)

val incr : ?by:int -> counter -> unit
val observe : histogram -> float -> unit

(** {2 Reads} *)

val counter_value : counter -> int
val histogram_data : histogram -> Fortress_util.Histogram.t

val find_counter : t -> string -> int
(** Value of the named counter, or 0 when it was never registered. *)

type value =
  | Counter of int
  | Histogram of {
      count : int;  (** total observations, including under/overflow *)
      underflow : int;
      overflow : int;
      sum : float;  (** sum of every observation *)
      buckets : (float * float * int) list;
          (** per-bucket [(lo, hi, count)], ascending; lo inclusive, hi
              exclusive *)
    }

val snapshot : t -> (string * value) list
(** All registered metrics, sorted by name. *)

val histogram_value : Fortress_util.Histogram.t -> value
(** The [Histogram] {!value} of live histogram data — what {!snapshot}
    records for it; pairs with {!histogram_data} and {!quantile}. *)

val quantile : value -> float -> float option
(** [quantile v q] interpolates the [q]-quantile ([0..1]) from a
    [Histogram] value's bucket counts; [None] for counters and empty
    histograms. Mass in the under/overflow counters clamps to the
    outermost finite bucket edges. *)

val reset : t -> unit
(** Zero every counter and empty every histogram; registrations
    (and handles already held) survive. *)

val to_table : t -> Fortress_util.Table.t
val render : t -> string
