(** OpenMetrics / Prometheus text exposition.

    Renders a {!Metrics} snapshot (counters as [_total] series,
    histograms as cumulative [_bucket{le="..."}] / [_sum] /
    [_count] families using the per-bucket counts carried by
    {!Metrics.value}) plus, optionally, the final state of a
    {!Timeline} (window/event totals and per-key lifetime counters) and a
    {!Signal} (latest raw/EWMA/CUSUM per signal and alarm totals). The
    output is terminated by the OpenMetrics [# EOF] marker and is a pure
    function of its inputs. *)

val sanitize : string -> string
(** Coerce a string into a valid metric-name fragment
    ([[a-zA-Z_:][a-zA-Z0-9_:]*], sans colons): every other character maps
    to ['_'], a leading digit gains a ['_'] prefix, and the empty string
    becomes ["_"]. *)

val escape_label : string -> string
(** Escape a label {e value} per the exposition format: backslash,
    double quote and newline become the two-character sequences
    ["\\\\"], ["\\\""] and ["\\n"]. Everything else — including braces,
    commas and non-ASCII bytes — passes through verbatim, as the spec
    requires. *)

val render :
  ?prefix:string ->
  ?metrics:Metrics.t ->
  ?timeline:Timeline.t ->
  ?signals:Signal.t ->
  ?latency:Latency.t ->
  unit ->
  string
(** [prefix] defaults to ["fortress"] and goes through {!sanitize};
    label values (timeline keys, signal names, latency chains) go through
    {!escape_label}. [latency] renders a [<prefix>_latency_vt] summary
    family (p50/p90/p99 quantiles, [_sum], [_count]) per non-empty chain,
    plus a [_censored_total] counter for chains left open. *)
