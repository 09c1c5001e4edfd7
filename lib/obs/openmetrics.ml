(* OpenMetrics / Prometheus text exposition of a Metrics registry and the
   final state of a Timeline + Signal pair. Pure rendering: iterates
   snapshots, mutates nothing, and is therefore as deterministic as its
   inputs. *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; we don't emit colons,
   so map every other character to '_' and guard the first position
   against digits (and emptiness) — "9p" becomes "_9p", not an invalid
   exposition another scraper rejects. *)
let sanitize name =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let metric buf ~typ name lines =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ);
  List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) lines

let metrics_section buf ~prefix registry =
  List.iter
    (fun (name, v) ->
      let base = prefix ^ "_" ^ sanitize name in
      match v with
      | Metrics.Counter n ->
          metric buf ~typ:"counter" (base ^ "_total") [ Printf.sprintf "%s_total %d" base n ]
      | Metrics.Histogram { count; underflow; sum; buckets; _ } ->
          (* cumulative counts; mass below the first edge (underflow) is
             inside every bucket, the +Inf bucket is the total count *)
          let cum = ref underflow in
          let bucket_lines =
            List.map
              (fun (_, hi, c) ->
                cum := !cum + c;
                Printf.sprintf "%s_bucket{le=\"%s\"} %d" base (num hi) !cum)
              buckets
          in
          metric buf ~typ:"histogram" base
            (bucket_lines
            @ [
                Printf.sprintf "%s_bucket{le=\"+Inf\"} %d" base count;
                Printf.sprintf "%s_sum %s" base (num sum);
                Printf.sprintf "%s_count %d" base count;
              ]))
    (Metrics.snapshot registry)

let timeline_section buf ~prefix tl =
  let p = prefix ^ "_timeline" in
  metric buf ~typ:"gauge" (p ^ "_width") [ Printf.sprintf "%s_width %s" p (num (Timeline.width tl)) ];
  metric buf ~typ:"gauge" (p ^ "_windows")
    [ Printf.sprintf "%s_windows %d" p (Timeline.window_count tl) ];
  metric buf ~typ:"counter" (p ^ "_events_total")
    [ Printf.sprintf "%s_events_total %d" p (Timeline.events_seen tl) ];
  metric buf ~typ:"counter" (p ^ "_dropped_total")
    [ Printf.sprintf "%s_dropped_total %d" p (Timeline.dropped tl) ];
  metric buf ~typ:"counter" (p ^ "_key_total")
    (List.map
       (fun (key, n) -> Printf.sprintf "%s_key_total{key=\"%s\"} %d" p (escape_label key) n)
       (Timeline.totals tl))

let signals_section buf ~prefix sg =
  let p = prefix ^ "_signal" in
  let per series f =
    List.filter_map
      (fun kind ->
        Option.map
          (fun (pt : Signal.point) ->
            Printf.sprintf "%s_%s{signal=\"%s\"} %s" p series
              (escape_label (Signal.kind_name kind))
              (num (f pt)))
          (Signal.latest sg kind))
      Signal.all
  in
  metric buf ~typ:"gauge" (p ^ "_raw") (per "raw" (fun pt -> pt.Signal.raw));
  metric buf ~typ:"gauge" (p ^ "_ewma") (per "ewma" (fun pt -> pt.Signal.ewma));
  metric buf ~typ:"gauge" (p ^ "_cusum") (per "cusum" (fun pt -> pt.Signal.cusum));
  let alarm_counts =
    List.map
      (fun kind ->
        let n =
          List.length (List.filter (fun (k, _) -> k = kind) (Signal.alarms sg))
        in
        Printf.sprintf "%s_alarms_total{signal=\"%s\"} %d" p
          (escape_label (Signal.kind_name kind))
          n)
      Signal.all
  in
  metric buf ~typ:"counter" (p ^ "_alarms_total") alarm_counts

let latency_section buf ~prefix lat =
  let p = prefix ^ "_latency_vt" in
  let lines =
    List.concat_map
      (fun kind ->
        match Latency.summary lat kind with
        | None -> []
        | Some s ->
            let chain = escape_label (Latency.kind_name kind) in
            let q quantile v =
              if Float.is_nan v then []
              else [ Printf.sprintf "%s{chain=\"%s\",quantile=\"%s\"} %s" p chain quantile (num v) ]
            in
            q "0.5" s.Latency.s_p50 @ q "0.9" s.Latency.s_p90 @ q "0.99" s.Latency.s_p99
            @ [
                Printf.sprintf "%s_sum{chain=\"%s\"} %s" p chain (num s.Latency.s_sum);
                Printf.sprintf "%s_count{chain=\"%s\"} %d" p chain s.Latency.s_count;
              ])
      Latency.kinds
  in
  if lines <> [] then metric buf ~typ:"summary" p lines;
  let censored =
    List.filter_map
      (fun kind ->
        match Latency.censored lat kind with
        | 0 -> None
        | n ->
            Some
              (Printf.sprintf "%s_censored_total{chain=\"%s\"} %d" p
                 (escape_label (Latency.kind_name kind))
                 n))
      Latency.kinds
  in
  if censored <> [] then metric buf ~typ:"counter" (p ^ "_censored_total") censored

let render ?(prefix = "fortress") ?metrics ?timeline ?signals ?latency () =
  let prefix = sanitize prefix in
  let buf = Buffer.create 1024 in
  Option.iter (metrics_section buf ~prefix) metrics;
  Option.iter (timeline_section buf ~prefix) timeline;
  Option.iter (signals_section buf ~prefix) signals;
  Option.iter (latency_section buf ~prefix) latency;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
