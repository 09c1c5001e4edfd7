module Json = Fortress_obs.Json
module Event = Fortress_obs.Event
module Metrics = Fortress_obs.Metrics
module Span = Fortress_obs.Span
module Sink = Fortress_obs.Sink
module Summary = Fortress_obs.Summary
module Timeline = Fortress_obs.Timeline
module Signal = Fortress_obs.Signal
module Openmetrics = Fortress_obs.Openmetrics
module Engine = Fortress_sim.Engine

(* ---- Json ---- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("i", Json.Num 42.0);
        ("f", Json.Num 1.5);
        ("s", Json.Str "a \"quoted\"\nline\twith\\escapes");
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Num 1.0; Json.Str "x"; Json.Bool false ]);
        ("o", Json.Obj [ ("nested", Json.Num (-3.0)) ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "round-trips" true (doc = doc')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_integers_compact () =
  Alcotest.(check string) "integral floats have no point" "{\"t\":300}"
    (Json.to_string (Json.Obj [ ("t", Json.Num 300.0) ]));
  Alcotest.(check string) "non-integral keeps fraction" "0.5" (Json.to_string (Json.Num 0.5))

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with Ok _ -> Alcotest.fail ("accepted: " ^ s) | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "\"unterminated"

let parse_str s =
  match Json.parse s with
  | Ok (Json.Str v) -> v
  | Ok _ -> Alcotest.failf "parsed %s to a non-string" s
  | Error e -> Alcotest.failf "rejected %s: %s" s e

let test_json_unicode_escapes () =
  Alcotest.(check string) "BMP escape" "A" (parse_str {|"\u0041"|});
  Alcotest.(check string) "non-ASCII BMP escape" "\xc3\xa9" (parse_str {|"\u00e9"|});
  Alcotest.(check string) "case-insensitive hex" "\xc3\xa9" (parse_str {|"\u00E9"|});
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" (parse_str {|"\ud83d\ude00"|});
  (* a lone high surrogate is not a scalar value: replacement character *)
  Alcotest.(check string) "lone high surrogate" "\xef\xbf\xbdx" (parse_str {|"\ud800x"|});
  Alcotest.(check string) "unpaired high surrogate before plain char" "\xef\xbf\xbdA"
    (parse_str {|"\ud83dA"|});
  (* a high surrogate followed by a \u escape that is not a low surrogate *)
  (match Json.parse "\"\\ud83d\\u0041\"" with
  | Ok _ -> Alcotest.fail "accepted a malformed surrogate pair"
  | Error e ->
      Alcotest.(check bool) "low surrogate error" true
        (String.length e > 0 && String.ends_with ~suffix:"invalid low surrogate" e));
  (* non-hex digits are a parse error, not an uncaught exception *)
  match Json.parse {|"ab\uZZZZ"|} with
  | Ok _ -> Alcotest.fail "accepted non-hex \\u escape"
  | Error e -> Alcotest.(check string) "offset names offending char" "at 5: invalid \\u escape" e

let test_json_nested_depth () =
  let depth = 256 in
  let s =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "1"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  match Json.parse s with
  | Error e -> Alcotest.failf "depth %d rejected: %s" depth e
  | Ok doc ->
      let rec unwrap n = function
        | Json.List [ inner ] -> unwrap (n + 1) inner
        | Json.Num 1.0 -> n
        | _ -> Alcotest.fail "unexpected shape"
      in
      Alcotest.(check int) "full depth preserved" depth (unwrap 0 doc);
      Alcotest.(check string) "re-emits identically" s (Json.to_string doc)

let test_json_error_offsets () =
  let offset_of s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted: %s" s
    | Error e -> (
        (* errors are "at <offset>: <message>" *)
        match String.index_opt e ':' with
        | Some i -> int_of_string (String.sub e 3 (i - 3))
        | None -> Alcotest.failf "unparseable error: %s" e)
  in
  Alcotest.(check int) "missing array element" 3 (offset_of "[1,]");
  Alcotest.(check int) "missing object value" 5 (offset_of {|{"a":}|});
  Alcotest.(check int) "bare comma at start" 0 (offset_of ",");
  Alcotest.(check int) "trailing garbage" 7 (offset_of {|{"a":1}x|});
  Alcotest.(check int) "unknown escape" 3 (offset_of {|"a\q"|});
  Alcotest.(check int) "truncated input" 1 (offset_of "[")

let test_json_accessors () =
  match Json.parse "{\"a\": 7, \"b\": \"x\", \"c\": [1,2]}" with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      Alcotest.(check (option int)) "int member" (Some 7)
        (Option.bind (Json.member "a" doc) Json.int);
      Alcotest.(check (option string)) "str member" (Some "x")
        (Option.bind (Json.member "b" doc) Json.str);
      Alcotest.(check int) "list member" 2
        (List.length (Option.get (Option.bind (Json.member "c" doc) Json.list)));
      Alcotest.(check (option int)) "missing member" None
        (Option.bind (Json.member "zzz" doc) Json.int)

(* ---- Event ---- *)

let all_events =
  [
    Event.Probe
      { kind = Event.Direct; tier = Event.Proxy_tier; target = 2; outcome = Event.Crashed };
    Event.Probe
      { kind = Event.Indirect; tier = Event.Server_tier; target = 0; outcome = Event.Intruded };
    Event.Probe
      { kind = Event.Launchpad; tier = Event.Server_tier; target = 1; outcome = Event.Blocked };
    Event.Compromise { tier = Event.Proxy_tier; index = 1 };
    Event.Rekey { nodes = 6 };
    Event.Recover { nodes = 4 };
    Event.Step { n = 17 };
    Event.Invalid_observed { proxy = 0 };
    Event.Source_blocked { proxy = 2; source = 31 };
    Event.Source_rotated { burned = 5 };
    Event.Request_submitted { id = "r-1" };
    Event.Request_completed { id = "r-1"; accepted = true };
    Event.Reply_rejected { id = "r-2" };
    Event.Msg_delivered { src = 3; dst = 9 };
    Event.Msg_dropped { src = 3; dst = 9; reason = "partition" };
    Event.Failover { proto = "pb"; replica = 1; view = 4 };
    Event.Repl { proto = "smr"; kind = "restore"; detail = "replica 2 restored" };
    Event.Trial { index = 12; seed = 42; lifetime = Some 33.0 };
    Event.Trial { index = 13; seed = 42; lifetime = None };
    Event.Span_finished
      {
        id = 3;
        parent = Some 1;
        name = "client.request";
        start_time = 10.0;
        duration = 2.5;
        attrs = [ ("id", "r-1") ];
      };
    Event.Note { label = "daemon"; detail = "intrusion: correct key probed" };
  ]

let test_event_json_roundtrip () =
  List.iter
    (fun ev ->
      match Sink.parse_line (Sink.line ~time:0.0 ev) with
      | Ok (_, ev') ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trips %s" (Event.label ev))
            true (ev = ev')
      | Error e -> Alcotest.fail (Event.label ev ^ ": " ^ e))
    all_events

let test_event_labels_and_verbosity () =
  Alcotest.(check string) "probe label" "probe"
    (Event.label (List.hd all_events));
  Alcotest.(check string) "note uses embedded label" "daemon"
    (Event.label (Event.Note { label = "daemon"; detail = "d" }));
  (* high-rate events must not take trace-ring slots *)
  List.iter
    (fun ev ->
      Alcotest.(check bool)
        (Event.label ev ^ " is debug")
        true
        (Event.verbosity ev = `Debug))
    [
      List.hd all_events;
      Event.Msg_delivered { src = 0; dst = 1 };
      Event.Request_submitted { id = "x" };
      Event.Invalid_observed { proxy = 0 };
    ];
  List.iter
    (fun ev ->
      Alcotest.(check bool) (Event.label ev ^ " is info") true (Event.verbosity ev = `Info))
    [ Event.Rekey { nodes = 3 }; Event.Compromise { tier = Event.Server_tier; index = 0 } ]

(* ---- Metrics ---- *)

let test_metrics_counters_and_kind_clash () =
  let m = Metrics.create () in
  let c = Metrics.counter m "events.probe" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check int) "same handle on re-registration" 5
    (Metrics.counter_value (Metrics.counter m "events.probe"));
  Alcotest.(check int) "find_counter" 5 (Metrics.find_counter m "events.probe");
  Alcotest.(check int) "absent counter reads 0" 0 (Metrics.find_counter m "nope");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"events.probe\" is already registered as a counter")
    (fun () -> ignore (Metrics.histogram m ~lo:0.0 ~hi:1.0 ~bins:1 "events.probe"))

let test_metrics_histogram_snapshot_reset () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~lo:0.0 ~hi:10.0 ~bins:5 "lifetimes" in
  List.iter (Metrics.observe h) [ 1.0; 3.0; 7.0; 42.0 ];
  let c = Metrics.counter m "n" in
  Metrics.incr c;
  (match Metrics.snapshot m with
  | [ ("lifetimes", Metrics.Histogram { count; overflow; _ }); ("n", Metrics.Counter 1) ] ->
      Alcotest.(check int) "histogram count" 4 count;
      Alcotest.(check int) "overflow" 1 overflow
  | _ -> Alcotest.fail "unexpected snapshot shape");
  Metrics.reset m;
  Alcotest.(check int) "counter zeroed, handle survives" 0 (Metrics.counter_value c);
  (match Metrics.snapshot m with
  | [ ("lifetimes", Metrics.Histogram { count; _ }); ("n", Metrics.Counter 0) ] ->
      Alcotest.(check int) "histogram emptied" 0 count
  | _ -> Alcotest.fail "registrations must survive reset");
  Alcotest.(check bool) "renders" true (String.length (Metrics.render m) > 0)

let test_metrics_histogram_value_and_quantile () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~lo:0.0 ~hi:10.0 ~bins:5 "h" in
  List.iter (Metrics.observe h) [ 1.0; 3.0; 7.0; 42.0 ];
  let data = Metrics.histogram_data h in
  Alcotest.(check (float 1e-9)) "Histogram.sum tracks observations" 53.0
    (Fortress_util.Histogram.sum data);
  match Metrics.histogram_value data with
  | Metrics.Histogram { count; overflow; sum; buckets; _ } as v ->
      Alcotest.(check int) "count includes overflow" 4 count;
      Alcotest.(check int) "overflow" 1 overflow;
      Alcotest.(check (float 1e-9)) "value carries sum" 53.0 sum;
      Alcotest.(check int) "bucket list" 5 (List.length buckets);
      (* rank 2 lands at the top of the [2,4) bucket *)
      Alcotest.(check (option (float 1e-9))) "p50 interpolates" (Some 4.0)
        (Metrics.quantile v 0.5);
      (* overflow mass clamps to the highest finite edge *)
      Alcotest.(check (option (float 1e-9))) "p100 clamps overflow" (Some 10.0)
        (Metrics.quantile v 1.0);
      Alcotest.(check bool) "counters have no quantile" true
        (Metrics.quantile (Metrics.Counter 3) 0.5 = None)
  | _ -> Alcotest.fail "histogram_value did not return a Histogram"

(* ---- Span ---- *)

let test_span_lifecycle () =
  let clock = ref 0.0 in
  let ctx = Span.create ~now:(fun () -> !clock) () in
  let finished = ref [] in
  Span.set_on_finish ctx (fun ev -> finished := ev :: !finished);
  let root = Span.start ctx "step" in
  clock := 5.0;
  let child = Span.start ctx ~parent:root "request" in
  Span.set_attr child "id" "r-9";
  Alcotest.(check int) "two active" 2 (Span.active_count ctx);
  clock := 8.0;
  Span.finish ctx child;
  Span.finish ctx child;
  (* idempotent *)
  clock := 10.0;
  Span.finish ctx root;
  Alcotest.(check int) "none active" 0 (Span.active_count ctx);
  Alcotest.(check int) "two finished" 2 (Span.finished_count ctx);
  match List.rev !finished with
  | [
   Event.Span_finished { name; start_time; duration; parent; attrs; _ };
   Event.Span_finished { duration = root_duration; _ };
  ] ->
      Alcotest.(check string) "child name" "request" name;
      Alcotest.(check (float 0.0)) "child start" 5.0 start_time;
      Alcotest.(check (float 0.0)) "child duration" 3.0 duration;
      Alcotest.(check (option int)) "parent link" (Some (Span.id root)) parent;
      Alcotest.(check (list (pair string string))) "attrs" [ ("id", "r-9") ] attrs;
      Alcotest.(check (float 0.0)) "root duration" 10.0 root_duration
  | _ -> Alcotest.fail "expected exactly two Span_finished events"

(* ---- Sink ---- *)

let test_sink_subscribers_and_detach () =
  let sink = Sink.create () in
  let a = ref 0 and b = ref 0 in
  let ha = Sink.attach sink (fun ~time:_ _ -> incr a) in
  ignore (Sink.attach sink (fun ~time:_ _ -> incr b));
  Sink.emit sink ~time:1.0 (Event.Rekey { nodes = 3 });
  Sink.detach sink ha;
  Sink.detach sink ha;
  (* double detach is a no-op *)
  Sink.emit sink ~time:2.0 (Event.Rekey { nodes = 3 });
  Alcotest.(check int) "detached saw one" 1 !a;
  Alcotest.(check int) "live saw both" 2 !b;
  Alcotest.(check int) "emitted total" 2 (Sink.emitted sink)

let test_sink_jsonl_roundtrip () =
  let lines = ref [] in
  let sink = Sink.create () in
  ignore (Sink.attach sink (fun ~time ev -> lines := Sink.line ~time ev :: !lines));
  List.iteri (fun i ev -> Sink.emit sink ~time:(float_of_int i) ev) all_events;
  let parsed = List.rev_map Sink.parse_line !lines in
  Alcotest.(check int) "all lines parse" (List.length all_events) (List.length parsed);
  List.iteri
    (fun i -> function
      | Ok (t, ev) ->
          Alcotest.(check (float 0.0)) "time preserved" (float_of_int i) t;
          Alcotest.(check bool)
            (Event.label ev ^ " round-trips")
            true
            (ev = List.nth all_events i)
      | Error e -> Alcotest.fail e)
    parsed

let test_sink_counting_and_memory () =
  let m = Metrics.create () in
  let sink = Sink.create () in
  ignore (Sink.attach sink (Sink.counting m));
  let mem, recent = Sink.memory ~capacity:2 () in
  ignore (Sink.attach sink mem);
  Sink.emit sink ~time:0.0
    (Event.Probe
       { kind = Event.Direct; tier = Event.Proxy_tier; target = 0; outcome = Event.Crashed });
  Sink.emit sink ~time:1.0
    (Event.Probe
       { kind = Event.Indirect; tier = Event.Server_tier; target = 0; outcome = Event.Intruded });
  Sink.emit sink ~time:2.0 (Event.Rekey { nodes = 6 });
  Alcotest.(check int) "probe label counted" 2 (Metrics.find_counter m "events.probe");
  Alcotest.(check int) "kind counted" 1 (Metrics.find_counter m "probe.direct");
  Alcotest.(check int) "outcome counted" 1 (Metrics.find_counter m "probe.intrusion");
  Alcotest.(check int) "rekey counted" 1 (Metrics.find_counter m "events.rekey");
  match recent () with
  | [ (1.0, Event.Probe _); (2.0, Event.Rekey _) ] -> ()
  | l -> Alcotest.fail (Printf.sprintf "memory ring kept %d unexpected events" (List.length l))

let test_sink_line_deterministic_roundtrip () =
  (* Renders depend only on the event, never on hashing or environment:
     line -> parse_line -> line must be byte-identical for every event
     shape, which is what makes trace digests stable across runs and
     OCaml versions. *)
  List.iteri
    (fun i ev ->
      let time = 0.5 +. float_of_int i in
      let rendered = Sink.line ~time ev in
      match Sink.parse_line rendered with
      | Error e -> Alcotest.failf "%s does not parse back: %s" (Event.label ev) e
      | Ok (time', ev') ->
          Alcotest.(check string)
            (Event.label ev ^ " re-renders byte-identically")
            rendered
            (Sink.line ~time:time' ev'))
    all_events

(* The renderer Event.write replaced, kept as the reference: the event's
   Json.t tree with "t" prepended, printed by the emitter of that time (a
   per-byte escape and Printf for every number). *)
module Reference = struct
  let add_escaped buf s =
    Buffer.add_char buf '"';
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

  let add_num buf x =
    if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" x)
    else if Float.is_nan x || Float.abs x = Float.infinity then Buffer.add_string buf "null"
    else Buffer.add_string buf (Printf.sprintf "%.12g" x)

  let rec add buf = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Num x -> add_num buf x
    | Json.Str s -> add_escaped buf s
    | Json.List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            add buf item)
          items;
        Buffer.add_char buf ']'
    | Json.Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_escaped buf k;
            Buffer.add_char buf ':';
            add buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    add buf v;
    Buffer.contents buf

  let to_json ev =
    let tag fields = Json.Obj (("event", Json.Str (Event.label ev)) :: fields) in
    let int n = Json.Num (float_of_int n) in
    match ev with
    | Event.Probe { kind; tier; target; outcome } ->
        tag
          [
            ("kind", Json.Str (Event.kind_to_string kind));
            ("tier", Json.Str (Event.tier_to_string tier));
            ("target", int target);
            ("outcome", Json.Str (Event.outcome_to_string outcome));
          ]
    | Event.Compromise { tier; index } ->
        tag [ ("tier", Json.Str (Event.tier_to_string tier)); ("index", int index) ]
    | Event.Rekey { nodes } -> tag [ ("nodes", int nodes) ]
    | Event.Recover { nodes } -> tag [ ("nodes", int nodes) ]
    | Event.Step { n } -> tag [ ("n", int n) ]
    | Event.Invalid_observed { proxy } -> tag [ ("proxy", int proxy) ]
    | Event.Source_blocked { proxy; source } -> tag [ ("proxy", int proxy); ("source", int source) ]
    | Event.Source_rotated { burned } -> tag [ ("burned", int burned) ]
    | Event.Request_submitted { id } -> tag [ ("id", Json.Str id) ]
    | Event.Request_completed { id; accepted } ->
        tag [ ("id", Json.Str id); ("accepted", Json.Bool accepted) ]
    | Event.Reply_rejected { id } -> tag [ ("id", Json.Str id) ]
    | Event.Msg_delivered { src; dst } -> tag [ ("src", int src); ("dst", int dst) ]
    | Event.Msg_dropped { src; dst; reason } ->
        tag [ ("src", int src); ("dst", int dst); ("reason", Json.Str reason) ]
    | Event.Failover { proto; replica; view } ->
        tag [ ("proto", Json.Str proto); ("replica", int replica); ("view", int view) ]
    | Event.Repl { proto; kind; detail } ->
        tag [ ("proto", Json.Str proto); ("kind", Json.Str kind); ("detail", Json.Str detail) ]
    | Event.Trial { index; seed; lifetime } ->
        tag
          [
            ("index", int index);
            ("seed", int seed);
            ("lifetime", match lifetime with Some l -> Json.Num l | None -> Json.Null);
          ]
    | Event.Span_finished { id; parent; name; start_time; duration; attrs } ->
        tag
          [
            ("id", int id);
            ("parent", match parent with Some p -> int p | None -> Json.Null);
            ("name", Json.Str name);
            ("start", Json.Num start_time);
            ("duration", Json.Num duration);
            ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs));
          ]
    | Event.Fault { action; target; detail } ->
        tag
          [ ("action", Json.Str action); ("target", Json.Str target); ("detail", Json.Str detail) ]
    | Event.Directive { step; strategy; detail } ->
        tag [ ("step", int step); ("strategy", Json.Str strategy); ("detail", Json.Str detail) ]
    | Event.Note { label; detail } ->
        Json.Obj [ ("event", Json.Str label); ("detail", Json.Str detail) ]

  let tree ~time ev =
    match to_json ev with
    | Json.Obj fields -> Json.Obj (("t", Json.Num time) :: fields)
    | other -> other

  let line ~time ev = to_string (tree ~time ev)
end

(* Generators that reach every fast path of the writer: strings with and
   without bytes to escape, Note labels equal to constructor labels,
   integral floats on both sides of 1e15 (and -0.0), non-integral and
   non-finite floats, ints on both sides of 10^15 and min_int. *)
let gen_text =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 5)
         (oneofl
            [ "\""; "\\"; "\n"; "\r"; "\t"; "\x00"; "\x01"; "\x1f"; "\x7f"; "\xc3\xa9";
              "\xf0\x9f\x98\x80"; "/"; "a"; "node 3"; "" ])))

let gen_float =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ -0.0; 0.0; 0.5; 1.0 /. 3.0; 1e-7; 1e15 -. 1.0; 1e15; -1e15; 1e21; Float.nan;
            Float.infinity; Float.neg_infinity; 123456789012.5; -2.5 ];
        map float_of_int (int_range (-1000) 1000);
        float;
      ])

let gen_int =
  let e15 = 1_000_000_000_000_000 in
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; -1; e15 - 1; -(e15 - 1); e15; -e15; max_int; min_int ];
        small_signed_int;
        int;
      ])

let gen_event =
  let open QCheck.Gen in
  let tier = oneofl [ Event.Proxy_tier; Event.Server_tier ] in
  let label =
    oneof [ oneofl [ "probe"; "step"; "rekey"; "span"; "trial"; "fault"; "daemon" ]; gen_text ]
  in
  oneof
    [
      (let+ kind = oneofl [ Event.Direct; Event.Indirect; Event.Launchpad ]
       and+ tier = tier
       and+ target = gen_int
       and+ outcome = oneofl [ Event.Crashed; Event.Intruded; Event.Blocked ] in
       Event.Probe { kind; tier; target; outcome });
      map2 (fun tier index -> Event.Compromise { tier; index }) tier gen_int;
      map (fun nodes -> Event.Rekey { nodes }) gen_int;
      map (fun nodes -> Event.Recover { nodes }) gen_int;
      map (fun n -> Event.Step { n }) gen_int;
      map (fun proxy -> Event.Invalid_observed { proxy }) gen_int;
      map2 (fun proxy source -> Event.Source_blocked { proxy; source }) gen_int gen_int;
      map (fun burned -> Event.Source_rotated { burned }) gen_int;
      map (fun id -> Event.Request_submitted { id }) gen_text;
      map2 (fun id accepted -> Event.Request_completed { id; accepted }) gen_text bool;
      map (fun id -> Event.Reply_rejected { id }) gen_text;
      map2 (fun src dst -> Event.Msg_delivered { src; dst }) gen_int gen_int;
      map3 (fun src dst reason -> Event.Msg_dropped { src; dst; reason }) gen_int gen_int gen_text;
      map3 (fun proto replica view -> Event.Failover { proto; replica; view }) gen_text gen_int
        gen_int;
      map3 (fun proto kind detail -> Event.Repl { proto; kind; detail }) gen_text gen_text gen_text;
      map3 (fun index seed lifetime -> Event.Trial { index; seed; lifetime }) gen_int gen_int
        (opt gen_float);
      (let+ id = gen_int
       and+ parent = opt gen_int
       and+ name = gen_text
       and+ start_time = gen_float
       and+ duration = gen_float
       and+ attrs = list_size (int_bound 3) (pair gen_text gen_text) in
       Event.Span_finished { id; parent; name; start_time; duration; attrs });
      map3 (fun action target detail -> Event.Fault { action; target; detail }) gen_text gen_text
        gen_text;
      map3 (fun step strategy detail -> Event.Directive { step; strategy; detail }) gen_int
        gen_text gen_text;
      map2 (fun label detail -> Event.Note { label; detail }) label gen_text;
    ]

let print_timed (time, ev) = Reference.line ~time ev

let prop_line_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"Sink.line equals the reference renderer"
    (QCheck.make ~print:print_timed QCheck.Gen.(pair gen_float gen_event))
    (fun (time, ev) ->
      let expected = Reference.line ~time ev in
      (* both writers: Event.write, and Json's tree emitter on the same tree *)
      Sink.line ~time ev = expected && Json.to_string (Reference.tree ~time ev) = expected)

let prop_digesting_matches_lines =
  (* consecutive events often share a time, whose text the writer's memory
     reuses: draw repeats, and distinct times such as -0.0 after 0.0 *)
  let gen_stream =
    QCheck.Gen.(
      map
        (fun draws ->
          let _, rev =
            List.fold_left
              (fun (prev, acc) (repeat, time, ev) ->
                let time = if repeat then prev else time in
                (time, (time, ev) :: acc))
              (0.0, []) draws
          in
          List.rev rev)
        (list_size (int_bound 60) (triple bool gen_float gen_event)))
  in
  QCheck.Test.make ~count:300 ~name:"Sink.digesting equals digest_lines of its lines"
    (QCheck.make ~print:QCheck.Print.(list print_timed) gen_stream)
    (fun stream ->
      let sub, digest = Sink.digesting () in
      List.iter (fun (time, ev) -> sub ~time ev) stream;
      digest () = Sink.digest_lines (List.map (fun (time, ev) -> Reference.line ~time ev) stream))

let test_sink_digesting_allocation () =
  (* the digest renders into a reused buffer and hashes in an unboxed loop;
     a non-integral time is formatted once while events repeat it. Pairs
     are built up front, so the loop itself allocates only what the
     subscriber does. *)
  let sub, digest = Sink.digesting () in
  let evs =
    [| Event.Msg_delivered { src = 3; dst = 7 };
       Event.Fault { action = "drop"; target = "link 3->7"; detail = "" };
       Event.Probe
         { kind = Event.Direct; tier = Event.Proxy_tier; target = 2; outcome = Event.Crashed } |]
  in
  let pairs =
    Array.init 10_000 (fun i ->
        let step = float_of_int (i / 3) in
        ((if i mod 3 = 0 then step else step +. 0.375), evs.(i mod 3)))
  in
  let before = Gc.minor_words () in
  Array.iter (fun (time, ev) -> sub ~time ev) pairs;
  let words = (Gc.minor_words () -. before) /. 10_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per event <= 24" words)
    true (words <= 24.0);
  Alcotest.(check string) "digest of the same lines"
    (Sink.digest_lines (Array.to_list (Array.map (fun (time, ev) -> Sink.line ~time ev) pairs)))
    (digest ())

let test_sink_file_flushes_and_closes () =
  let path = Filename.temp_file "fortress-sink" ".jsonl" in
  let sub, close = Sink.file path in
  let sink = Sink.create () in
  ignore (Sink.attach sink sub);
  Sink.emit sink ~time:1.0 (Event.Rekey { nodes = 3 });
  Sink.emit sink ~time:2.0 (Event.Step { n = 1 });
  close ();
  close ();
  (* idempotent *)
  (* writes after close are dropped, not crashes on a dead descriptor *)
  Sink.emit sink ~time:3.0 (Event.Step { n = 2 });
  let s = Summary.of_file path in
  Sys.remove path;
  Alcotest.(check int) "both pre-close events on disk" 2 s.Summary.total;
  Alcotest.(check int) "nothing malformed" 0 s.Summary.malformed

(* ---- Engine integration ---- *)

let test_engine_emit_feeds_metrics_and_trace () =
  let e = Engine.create () in
  let reg = Metrics.create () in
  ignore (Sink.attach (Engine.sink e) (Sink.counting reg));
  let tail, render = Sink.tail ~lines:10 in
  ignore (Sink.attach (Engine.sink e) tail);
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         Engine.emit e (Event.Rekey { nodes = 6 });
         Engine.emit e (Event.Msg_delivered { src = 0; dst = 1 })));
  Engine.run e;
  Alcotest.(check int) "metrics counted both" 1 (Metrics.find_counter reg "events.rekey");
  Alcotest.(check int) "debug event counted too" 1
    (Metrics.find_counter reg "events.msg_delivered");
  (* only the `Info event reaches the tail *)
  Alcotest.(check string) "one tail line"
    "[    1.0000] rekey              rekeyed 6 nodes (proactive obfuscation)\n" (render ())

let test_engine_spans_use_virtual_time () =
  let e = Engine.create () in
  let reg = Metrics.create () in
  ignore (Sink.attach (Engine.sink e) (Sink.counting reg));
  let mem, recent = Sink.memory () in
  ignore (Sink.attach (Engine.sink e) mem);
  let sp = ref None in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> sp := Some (Engine.span e "phase")));
  ignore (Engine.schedule e ~delay:7.0 (fun () -> Engine.finish_span e (Option.get !sp)));
  Engine.run e;
  Alcotest.(check int) "span event counted" 1 (Metrics.find_counter reg "events.span");
  match recent () with
  | [ (7.0, Event.Span_finished { name; start_time; duration; _ }) ] ->
      Alcotest.(check string) "name" "phase" name;
      Alcotest.(check (float 0.0)) "started at virtual t=2" 2.0 start_time;
      Alcotest.(check (float 0.0)) "virtual duration" 5.0 duration
  | _ -> Alcotest.fail "expected one Span_finished at t=7"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---- Timeline ---- *)

let probe_ev ?(kind = Event.Direct) ?(outcome = Event.Crashed) () =
  Event.Probe { kind; tier = Event.Proxy_tier; target = 0; outcome }

let watched_timeline ?capacity ~width () =
  let tl = Timeline.create ?capacity ~width () in
  let sink = Sink.create () in
  ignore (Sink.attach sink (Timeline.subscriber tl));
  (tl, sink)

let test_timeline_window_boundaries () =
  let tl, sink = watched_timeline ~width:10.0 () in
  (* an event exactly on the edge t = k*width belongs to window k, and
     negative times clamp to window 0 *)
  List.iter
    (fun t -> Sink.emit sink ~time:t (Event.Rekey { nodes = 1 }))
    [ 0.0; 9.999; -3.0; 10.0; 20.0 ];
  Timeline.finish tl;
  match Timeline.windows tl with
  | [ w0; w1; w2 ] ->
      Alcotest.(check int) "window 0 owns [0,w) plus the negative clamp" 3 w0.Timeline.total;
      Alcotest.(check (float 0.0)) "w1 lower edge" 10.0 w1.Timeline.t_lo;
      Alcotest.(check (float 0.0)) "w1 upper edge" 20.0 w1.Timeline.t_hi;
      Alcotest.(check int) "t = width falls in window 1" 1 w1.Timeline.total;
      Alcotest.(check int) "t = 2*width falls in window 2" 1 w2.Timeline.total;
      Alcotest.(check int) "events_seen" 5 (Timeline.events_seen tl);
      Alcotest.(check int) "per-key count" 3 (Timeline.count w0 "events.rekey");
      Alcotest.(check (float 1e-9)) "rate is count per unit vt" 0.3
        (Timeline.rate tl w0 "events.rekey")
  | ws -> Alcotest.failf "expected 3 windows, got %d" (List.length ws)

let test_timeline_ring_eviction_and_late_drop () =
  let tl, sink = watched_timeline ~capacity:2 ~width:1.0 () in
  List.iter
    (fun t -> Sink.emit sink ~time:t (Event.Rekey { nodes = 1 }))
    [ 0.5; 1.5; 2.5; 3.5 ];
  (* window 0 has been evicted; window 2 is still retained *)
  Sink.emit sink ~time:0.2 (Event.Rekey { nodes = 1 });
  Sink.emit sink ~time:2.2 (Event.Rekey { nodes = 1 });
  Timeline.finish tl;
  Alcotest.(check int) "four windows ever opened" 4 (Timeline.window_count tl);
  Alcotest.(check int) "one late event dropped" 1 (Timeline.dropped tl);
  Alcotest.(check int) "seen counts the dropped event too" 6 (Timeline.events_seen tl);
  Alcotest.(check int) "totals count only landed events" 5 (Timeline.total tl "events.rekey");
  match Timeline.windows tl with
  | [ w2; w3 ] ->
      Alcotest.(check int) "late event landed in retained window" 2 w2.Timeline.total;
      Alcotest.(check int) "frontier window" 1 w3.Timeline.total
  | ws -> Alcotest.failf "expected 2 retained windows, got %d" (List.length ws)

let test_timeline_gap_compression () =
  let tl, sink = watched_timeline ~capacity:4 ~width:1.0 () in
  Sink.emit sink ~time:0.5 (Event.Rekey { nodes = 1 });
  Sink.emit sink ~time:100.5 (Event.Rekey { nodes = 1 });
  Timeline.finish tl;
  (* the 96 windows the ring would immediately evict are skipped but still
     counted; the retained ring ends at the frontier *)
  Alcotest.(check int) "opened counts the skipped gap" 101 (Timeline.window_count tl);
  Alcotest.(check int) "nothing dropped" 0 (Timeline.dropped tl);
  let ws = Timeline.windows tl in
  Alcotest.(check int) "ring holds capacity windows" 4 (List.length ws);
  let last = List.nth ws (List.length ws - 1) in
  Alcotest.(check int) "frontier window index" 100 last.Timeline.index;
  Alcotest.(check int) "frontier window holds the event" 1 last.Timeline.total

let test_timeline_hooks_fire_once_in_order () =
  let tl, sink = watched_timeline ~width:1.0 () in
  let closed = ref [] in
  Timeline.on_window tl (fun w -> closed := w.Timeline.index :: !closed);
  (* the jump 1.5 -> 3.5 opens the empty window 2; its hook still fires *)
  List.iter
    (fun t -> Sink.emit sink ~time:t (Event.Rekey { nodes = 1 }))
    [ 0.5; 1.5; 3.5 ];
  Alcotest.(check (list int)) "closed up to the frontier" [ 0; 1; 2 ] (List.rev !closed);
  Timeline.finish tl;
  Timeline.finish tl;
  Alcotest.(check (list int)) "finish closes the frontier once" [ 0; 1; 2; 3 ]
    (List.rev !closed)

let test_timeline_pooled_replay_totals () =
  (* Two replayed "trials" each restart at t = 0, so the second one's
     events land in windows the frontier has already passed; they must
     still count in their window, which is what the events-per-window
     histogram of `fortress_cli timeline` reads after finish. *)
  let tl, sink = watched_timeline ~width:10.0 () in
  let trial ~events_per_window =
    List.iteri
      (fun w n ->
        for _ = 1 to n do
          Sink.emit sink ~time:((10.0 *. float_of_int w) +. 5.0) (Event.Rekey { nodes = 1 })
        done)
      events_per_window
  in
  trial ~events_per_window:[ 3; 1 ];
  trial ~events_per_window:[ 5000; 2; 1 ];
  Timeline.finish tl;
  Timeline.finish tl;
  let totals = List.map (fun w -> w.Timeline.total) (Timeline.windows tl) in
  Alcotest.(check (list int)) "window totals" [ 5003; 3; 1 ] totals;
  Alcotest.(check int) "window totals sum to the events seen" (Timeline.events_seen tl)
    (List.fold_left ( + ) 0 totals);
  Alcotest.(check int) "late events in the lifetime total" 5007 (Timeline.total tl "events.rekey");
  Alcotest.(check (list (pair string int))) "per-key window counts"
    [ ("events.rekey", 5003) ]
    (List.hd (Timeline.windows tl)).Timeline.counts

let test_timeline_subscriber_allocates_nothing () =
  (* fixed-key events cost array bumps only, also when they hop back to an
     earlier retained window; pairs are built up front so the loop itself
     allocates nothing *)
  let tl = Timeline.create ~width:10.0 () in
  let sub = Timeline.subscriber tl in
  let evs =
    [| probe_ev (); Event.Rekey { nodes = 1 }; Event.Msg_delivered { src = 0; dst = 1 };
       Event.Span_finished { id = 1; parent = None; name = "s"; start_time = 0.0;
                             duration = 1.0; attrs = [] } |]
  in
  let pairs = Array.init 64 (fun i -> (float_of_int (i * 7 mod 50), evs.(i mod 4))) in
  Array.iter (fun (time, ev) -> sub ~time ev) pairs;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let time, ev = pairs.(i land 63) in
    sub ~time ev
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words;
  Alcotest.(check int) "all counted" 10_064 (Timeline.events_seen tl)

let test_timeline_ignores_signal_alarms () =
  let tl, sink = watched_timeline ~width:10.0 () in
  Sink.emit sink ~time:1.0 (Event.Note { label = "signal.alarm"; detail = "x" });
  Sink.emit sink ~time:1.0 (Event.Rekey { nodes = 1 });
  Timeline.finish tl;
  Alcotest.(check int) "alarm notes invisible to the plane" 1 (Timeline.events_seen tl);
  Alcotest.(check int) "not counted" 0 (Timeline.total tl "events.signal.alarm")

let prop_timeline_counts_match_counting =
  (* Sink.counting, Timeline and Summary count one stream through one key
     table, so they agree: the per-window counts sum to the terminal
     counters, and Summary's labels and probe fields read the same counts.
     Notes labelled like a constructor count under its key, but not in
     Summary's typed fields; the timeline alone is blind to signal.alarm. *)
  QCheck.Test.make ~count:60 ~name:"window counts sum to terminal counters"
    QCheck.(list_of_size Gen.(int_range 0 150) (pair (float_bound_inclusive 5000.0) (int_bound 9)))
    (fun events ->
      let reg = Metrics.create () in
      let tl = Timeline.create ~width:10.0 () in
      let sink = Sink.create () in
      let seen = ref [] in
      ignore (Sink.attach sink (Timeline.subscriber tl));
      ignore (Sink.attach sink (Sink.counting reg));
      ignore (Sink.attach sink (fun ~time ev -> seen := (time, ev) :: !seen));
      (* anchor the ring at window 0 so no out-of-order event can be
         dropped: indices stay below the default capacity *)
      Sink.emit sink ~time:0.0 (Event.Step { n = 0 });
      List.iter
        (fun (time, which) ->
          let ev =
            match which with
            | 0 -> probe_ev ~kind:Event.Direct ~outcome:Event.Crashed ()
            | 1 -> probe_ev ~kind:Event.Indirect ~outcome:Event.Intruded ()
            | 2 -> Event.Rekey { nodes = 3 }
            | 3 -> Event.Invalid_observed { proxy = 0 }
            | 4 -> Event.Source_blocked { proxy = 0; source = 1 }
            | 5 -> Event.Fault { action = "crash"; target = "s"; detail = "" }
            | 6 -> Event.Fault { action = "drop"; target = "l"; detail = "" }
            | 7 -> Event.Note { label = "step"; detail = "" }
            | 8 -> Event.Note { label = "probe"; detail = "" }
            | _ -> Event.Note { label = "signal.alarm"; detail = "crash-burst: raw=1" }
          in
          Sink.emit sink ~time ev)
        events;
      Timeline.finish tl;
      let s = Summary.of_events (List.rev !seen) in
      let windows = Timeline.windows tl in
      let summed key =
        List.fold_left (fun acc w -> acc + Timeline.count w key) 0 windows
      in
      let counter = Metrics.find_counter reg in
      let drawn k = List.length (List.filter (fun (_, w) -> w = k) events) in
      let labels =
        List.filter_map
          (fun (name, v) ->
            match v with
            | Metrics.Counter n when String.starts_with ~prefix:"events." name ->
                Some (String.sub name 7 (String.length name - 7), n)
            | _ -> None)
          (Metrics.snapshot reg)
      in
      List.for_all
        (fun (name, v) ->
          match v with
          | Metrics.Counter n when name = "events.signal.alarm" ->
              n = drawn 9 && summed name = 0 && Timeline.total tl name = 0
          | Metrics.Counter n -> summed name = n && Timeline.total tl name = n
          | _ -> true)
        (Metrics.snapshot reg)
      && s.Summary.by_label = labels
      && s.Summary.steps = counter "events.step" - drawn 7
      && s.Summary.probes_direct = counter "probe.direct"
      && s.Summary.probes_indirect = counter "probe.indirect"
      && s.Summary.probes_launchpad = counter "probe.launchpad"
      && s.Summary.probes_crashed = counter "probe.crash"
      && s.Summary.probes_intruded = counter "probe.intrusion"
      && s.Summary.probes_blocked = counter "probe.blocked"
      && s.Summary.rekeys = counter "events.rekey"
      && List.for_all (fun (action, n) -> Timeline.total tl ("fault." ^ action) = n) s.Summary.faults
      && List.fold_left (fun acc (_, n) -> acc + n) 0 s.Summary.faults = counter "events.fault")

(* ---- Signal ---- *)

(* Synthetic stream: [specs] is one (invalid-count, rekey?) pair per
   100-vt window, in order. *)
let feed_spec_stream sink specs =
  List.iteri
    (fun idx (invalid, rekey) ->
      let base = float_of_int idx *. 100.0 in
      Sink.emit sink ~time:base (Event.Step { n = idx });
      if rekey then Sink.emit sink ~time:(base +. 1.0) (Event.Rekey { nodes = 1 });
      for i = 1 to invalid do
        Sink.emit sink ~time:(base +. 2.0 +. (0.01 *. float_of_int i))
          (Event.Invalid_observed { proxy = 0 })
      done)
    specs

let test_signal_staleness_cusum_alarm () =
  let tl, sink = watched_timeline ~width:100.0 () in
  (* rekey only in window 0; staleness then ramps by 100 vt per window.
     With slack 150 / threshold 250 the CUSUM crosses at window 4:
     s = 0, 0, 50, 200, 450 -> alarm, reset; then 350 and 450 again. *)
  feed_spec_stream sink
    [ (0, true); (0, false); (0, false); (0, false); (0, false); (0, false); (0, false) ];
  Timeline.finish tl;
  let sg = Signal.of_timeline tl in
  let stale_alarms =
    List.filter_map
      (fun (k, p) -> if k = Signal.Rekey_staleness then Some p.Signal.window else None)
      (Signal.alarms sg)
  in
  Alcotest.(check (list int)) "alarm windows" [ 4; 5; 6 ] stale_alarms;
  let pts = Signal.series sg Signal.Rekey_staleness in
  Alcotest.(check int) "one point per window" 7 (List.length pts);
  Alcotest.(check (float 1e-9)) "staleness at window 3" 300.0
    ((List.nth pts 3).Signal.raw);
  match Signal.latest sg Signal.Rekey_staleness with
  | Some p -> Alcotest.(check (float 1e-9)) "latest raw" 600.0 p.Signal.raw
  | None -> Alcotest.fail "no latest point"

let test_signal_rate_burst_alarm_and_steady_silence () =
  let steady = List.init 10 (fun _ -> (5, true)) in
  (* steady 0.05/vt: the adaptive reference tracks it, no alarms *)
  let tl, sink = watched_timeline ~width:100.0 () in
  feed_spec_stream sink steady;
  Timeline.finish tl;
  let sg = Signal.of_timeline tl in
  Alcotest.(check int) "steady stream raises nothing" 0 (List.length (Signal.alarms sg));
  (* same stream plus a 8x burst: invalid-probe-rate alarms on the jump *)
  let tl, sink = watched_timeline ~width:100.0 () in
  feed_spec_stream sink (steady @ [ (40, true) ]);
  Timeline.finish tl;
  let sg = Signal.of_timeline tl in
  let invalid_alarms =
    List.filter_map
      (fun (k, p) -> if k = Signal.Invalid_probe_rate then Some p.Signal.window else None)
      (Signal.alarms sg)
  in
  Alcotest.(check (list int)) "burst trips the detector on its window" [ 10 ] invalid_alarms

let test_signal_streaming_equals_batch () =
  let specs = [ (5, true); (5, false); (30, false); (2, true); (0, false); (12, false) ] in
  let batch_tl, batch_sink = watched_timeline ~width:100.0 () in
  feed_spec_stream batch_sink specs;
  Timeline.finish batch_tl;
  let batch = Signal.of_timeline batch_tl in
  let stream_tl, stream_sink = watched_timeline ~width:100.0 () in
  let stream = Signal.create stream_tl in
  feed_spec_stream stream_sink specs;
  Timeline.finish stream_tl;
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Signal.kind_name kind ^ " series agree")
        true
        (Signal.series batch kind = Signal.series stream kind))
    Signal.all;
  Alcotest.(check bool) "alarm lists agree" true (Signal.alarms batch = Signal.alarms stream);
  (* and the batch fold is reproducible from the same timeline *)
  let again = Signal.of_timeline batch_tl in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Signal.kind_name kind ^ " refold identical")
        true
        (Signal.series batch kind = Signal.series again kind))
    Signal.all

let test_signal_alarms_emit_without_feedback () =
  let reg = Metrics.create () in
  let tl = Timeline.create ~width:100.0 () in
  let sink = Sink.create () in
  ignore (Sink.attach sink (Timeline.subscriber tl));
  ignore (Sink.attach sink (Sink.counting reg));
  (* streaming signals publishing alarms back onto the watched sink *)
  let sg = Signal.create ~emit:(fun ~time ev -> Sink.emit sink ~time ev) tl in
  feed_spec_stream sink
    [ (0, true); (0, false); (0, false); (0, false); (0, false); (0, false) ];
  Timeline.finish tl;
  Alcotest.(check bool) "staleness alarmed" true (List.length (Signal.alarms sg) > 0);
  Alcotest.(check int) "alarm notes reached other subscribers"
    (List.length (Signal.alarms sg))
    (Metrics.find_counter reg "events.signal.alarm");
  Alcotest.(check int) "plane blind to its own detector" 0
    (Timeline.total tl "events.signal.alarm")

let test_signal_table_renders () =
  let tl, sink = watched_timeline ~width:100.0 () in
  Sink.emit sink ~time:1.0 (Event.Fault { action = "crash"; target = "s"; detail = "" });
  Sink.emit sink ~time:101.0 (Event.Rekey { nodes = 1 });
  Timeline.finish tl;
  let sg = Signal.of_timeline tl in
  let rendered = Fortress_util.Table.render (Signal.table ~timeline:tl sg) in
  Alcotest.(check bool) "fault column aligned" true (contains ~needle:"crash:1" rendered);
  Alcotest.(check bool) "has signal columns" true (contains ~needle:"stale" rendered)

(* ---- Engine telemetry ---- *)

let test_engine_attach_telemetry () =
  let e = Engine.create () in
  let tl, sg = Engine.attach_telemetry e in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () -> Engine.emit e (Event.Rekey { nodes = 2 })));
  ignore
    (Engine.schedule e ~delay:250.0 (fun () ->
         Engine.emit e (Event.Invalid_observed { proxy = 0 })));
  Engine.run e;
  Timeline.finish tl;
  Alcotest.(check (float 0.0)) "canonical 100-vt windows" 100.0 (Timeline.width tl);
  Alcotest.(check int) "timeline saw the rekey" 1 (Timeline.total tl "events.rekey");
  Alcotest.(check int) "three windows" 3 (List.length (Timeline.windows tl));
  Alcotest.(check int) "one signal point per window" 3
    (List.length (Signal.series sg Signal.Invalid_probe_rate));
  Alcotest.(check (option (float 1e-9))) "staleness scored as windows close" (Some 200.0)
    (Option.map (fun p -> p.Signal.raw) (Signal.latest sg Signal.Rekey_staleness))

(* ---- OpenMetrics ---- *)

let test_openmetrics_exposition () =
  let reg = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter reg "events.rekey");
  let h = Metrics.histogram reg ~lo:0.0 ~hi:10.0 ~bins:5 "lat" in
  List.iter (Metrics.observe h) [ 1.0; 3.0; 7.0; 42.0 ];
  let tl = Timeline.create ~width:100.0 () in
  let sink = Sink.create () in
  ignore (Sink.attach sink (Timeline.subscriber tl));
  feed_spec_stream sink [ (2, true); (1, false) ];
  Timeline.finish tl;
  let sg = Signal.of_timeline tl in
  let text = Openmetrics.render ~metrics:reg ~timeline:tl ~signals:sg () in
  Alcotest.(check bool) "terminated" true (String.ends_with ~suffix:"# EOF\n" text);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle text))
    [
      "fortress_events_rekey_total 3";
      "fortress_lat_bucket{le=\"+Inf\"} 4";
      "fortress_lat_sum 53";
      "fortress_lat_count 4";
      "fortress_timeline_windows 2";
      "fortress_timeline_key_total{key=\"events.invalid_observed\"} 3";
      "fortress_signal_raw{signal=\"rekey-staleness\"}";
      "fortress_signal_alarms_total{signal=\"crash-burst\"} 0";
    ];
  (* cumulative buckets never decrease *)
  let bucket_counts =
    List.filter_map
      (fun line ->
        if String.length line > 19 && String.sub line 0 19 = "fortress_lat_bucket" then
          String.index_opt line '}'
          |> Option.map (fun i ->
                 int_of_string
                   (String.trim (String.sub line (i + 1) (String.length line - i - 1))))
        else None)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "buckets cumulative" true
    (List.sort compare bucket_counts = bucket_counts);
  (* exactly one family per name across the registry, timeline and signal
     sections *)
  let type_lines =
    List.filter (String.starts_with ~prefix:"# TYPE") (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "no duplicate families"
    (List.length (List.sort_uniq compare type_lines))
    (List.length type_lines)

(* Label values pass through escape_label; a timeline keyed by adversarial
   strings (quotes, backslashes, newlines — e.g. a fault target named from
   attacker-controlled input) must still render a parseable, single-line
   exposition. *)
let test_openmetrics_adversarial_labels () =
  Alcotest.(check string) "backslash" {|a\\b|} (Openmetrics.escape_label {|a\b|});
  Alcotest.(check string) "quote" {|say \"hi\"|} (Openmetrics.escape_label {|say "hi"|});
  Alcotest.(check string) "newline" {|two\nlines|} (Openmetrics.escape_label "two\nlines");
  Alcotest.(check string) "combined" {|\\\"\n|} (Openmetrics.escape_label "\\\"\n");
  Alcotest.(check string) "braces verbatim" "{x=,}" (Openmetrics.escape_label "{x=,}");
  let tl = Timeline.create ~width:100.0 () in
  let sink = Sink.create () in
  ignore (Sink.attach sink (Timeline.subscriber tl));
  Sink.emit sink ~time:1.0
    (Event.Fault { action = "crash\"} evil 1\n#"; target = "s\\0"; detail = "" });
  Timeline.finish tl;
  let text = Openmetrics.render ~timeline:tl () in
  Alcotest.(check bool) "escaped key rendered" true
    (contains ~needle:{|key="fault.crash\"} evil 1\n#"|} text);
  (* every line is still NAME ... or a comment: no label value broke out *)
  List.iter
    (fun line ->
      if line <> "" && not (String.starts_with ~prefix:"#" line) then
        Alcotest.(check bool)
          ("well-formed line: " ^ line)
          true
          (String.length line > 0
          && (match line.[0] with
             | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
             | _ -> false)))
    (String.split_on_char '\n' text)

let test_openmetrics_sanitize_names () =
  Alcotest.(check string) "dots to underscores" "events_rekey"
    (Openmetrics.sanitize "events.rekey");
  Alcotest.(check string) "leading digit guarded" "_9front" (Openmetrics.sanitize "9front");
  Alcotest.(check string) "empty guarded" "_" (Openmetrics.sanitize "");
  Alcotest.(check string) "unicode flattened" "caf_" (Openmetrics.sanitize "caf\xc3");
  (* a digit-led prefix yields a legal metric name end to end *)
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg "hits");
  let text = Openmetrics.render ~prefix:"0day" ~metrics:reg () in
  Alcotest.(check bool) "prefixed family legal" true
    (contains ~needle:"_0day_hits_total 1" text)

(* ---- Summary ---- *)

let campaign_trace () =
  let sink = Sink.create () in
  let mem, recent = Sink.memory ~capacity:200_000 () in
  ignore (Sink.attach sink mem);
  let lifetime =
    Fortress_exp.Validation.campaign_lifetime ~sink ~chi:256 ~omega:8 ~kappa:0.5 ~seed:3 ()
  in
  (lifetime, recent ())

let test_summary_of_campaign_consistent () =
  let lifetime, events = campaign_trace () in
  Alcotest.(check bool) "campaign ended" true (lifetime <> None);
  let summary = Summary.of_events events in
  Alcotest.(check bool) "saw steps" true (summary.Summary.steps > 0);
  Alcotest.(check bool) "saw probes" true (summary.Summary.probes_direct > 0);
  Alcotest.(check bool) "renders" true (String.length (Summary.render summary) > 0);
  let checks = Summary.consistency ~omega:8 ~chi:256 ~kappa:0.5 summary in
  Alcotest.(check bool) "has checks" true (List.length checks >= 4);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: measured %.3f vs expected %.3f" c.Summary.metric
           c.Summary.measured c.Summary.expected)
        true c.Summary.ok)
    checks

let test_summary_jsonl_file_roundtrip () =
  let lifetime, events = campaign_trace () in
  ignore lifetime;
  let path = Filename.temp_file "fortress-obs" ".jsonl" in
  let oc = open_out path in
  List.iter (fun (t, ev) -> output_string oc (Sink.line ~time:t ev ^ "\n")) events;
  close_out oc;
  let from_file = Summary.of_file path in
  let from_events = Summary.of_events events in
  Sys.remove path;
  Alcotest.(check int) "same totals" from_events.Summary.total from_file.Summary.total;
  Alcotest.(check int) "nothing malformed" 0 from_file.Summary.malformed;
  Alcotest.(check (list (pair string int)))
    "same label histogram" from_events.Summary.by_label from_file.Summary.by_label

let test_summary_malformed_lines () =
  let path = Filename.temp_file "fortress-obs" ".jsonl" in
  let oc = open_out path in
  output_string oc (Sink.line ~time:1.0 (Event.Rekey { nodes = 3 }) ^ "\n");
  output_string oc "this is not json\n\n";
  output_string oc (Sink.line ~time:2.0 (Event.Step { n = 1 }) ^ "\n");
  close_out oc;
  let s = Summary.of_file path in
  Sys.remove path;
  Alcotest.(check int) "two parsed" 2 s.Summary.total;
  Alcotest.(check int) "one malformed (blank skipped)" 1 s.Summary.malformed

let test_summary_fault_breakdown () =
  let events =
    [
      (1.0, Event.Fault { action = "drop"; target = "link 0->1"; detail = "" });
      (2.0, Event.Fault { action = "drop"; target = "link 1->0"; detail = "" });
      (3.0, Event.Fault { action = "crash"; target = "server-1"; detail = "restart at 9" });
      (4.0, Event.Rekey { nodes = 3 });
    ]
  in
  let s = Summary.of_events events in
  Alcotest.(check (list (pair string int)))
    "per-action counts, sorted" [ ("crash", 1); ("drop", 2) ] s.Summary.faults;
  Alcotest.(check (option int)) "fault label total" (Some 3)
    (List.assoc_opt "fault" s.Summary.by_label);
  let rendered = Summary.render s in
  Alcotest.(check bool) "render has fault section" true
    (contains ~needle:"injected faults by action" rendered)

let test_summary_rate_column () =
  let events = List.init 5 (fun i -> (float_of_int i *. 2.0, Event.Rekey { nodes = 1 })) in
  let rendered = Summary.render (Summary.of_events events) in
  Alcotest.(check bool) "per-vt column present" true (contains ~needle:"per vt" rendered);
  (* 5 events over a span of 8 vt *)
  Alcotest.(check bool) "rate rendered" true (contains ~needle:"0.625" rendered);
  (* a single-timestamp trace has no usable span *)
  let one = Summary.render (Summary.of_events [ (1.0, Event.Rekey { nodes = 1 }) ]) in
  Alcotest.(check bool) "degenerate span renders a dash" true (contains ~needle:"-" one)

let test_summary_no_faults_no_section () =
  let s = Summary.of_events [ (1.0, Event.Rekey { nodes = 3 }) ] in
  Alcotest.(check (list (pair string int))) "empty" [] s.Summary.faults;
  Alcotest.(check bool) "no fault section" false
    (contains ~needle:"injected faults" (Summary.render s))

(* ---- Validation sink threading ---- *)

let test_trial_events_through_validation () =
  let sink = Sink.create () in
  let trials = ref 0 in
  ignore
    (Sink.attach sink (fun ~time:_ ev ->
         match ev with Event.Trial _ -> incr trials | _ -> ()));
  let lines =
    Fortress_exp.Validation.run ~sink ~chi:512 ~omega:8 ~trials:5
      ~systems:[ Fortress_model.Systems.S1_PO ] ()
  in
  Alcotest.(check int) "one line" 1 (List.length lines);
  (* 5 step-level + 5 probe-level trials *)
  Alcotest.(check int) "trial events from both tiers" 10 !trials

(* ---- Causal ---- *)

module Causal = Fortress_obs.Causal
module Latency = Fortress_obs.Latency

let test_causal_id_base_and_parentage () =
  let ctx = Span.create ~now:(fun () -> 0.0) () in
  let c = Causal.create ~trace_id:3 ctx in
  Alcotest.(check int) "trace id" 3 (Causal.trace_id c);
  Alcotest.(check bool) "no ambient initially" true (Causal.ambient c = None);
  let root = Causal.span_of c ~attrs:[ ("node", "client") ] "client.request" in
  Alcotest.(check int) "id from trace-id block" ((3 * Causal.id_stride) + 1) (Span.id root);
  Alcotest.(check bool) "root has no parent" true (Span.parent_id root = None);
  Alcotest.(check (list (pair string string))) "attrs applied" [ ("node", "client") ]
    (Span.attrs root);
  Causal.with_ambient c root (fun () ->
      Alcotest.(check bool) "root ambient inside" true (Causal.ambient c = Some root);
      let child = Causal.span_of c "net.send" in
      Alcotest.(check (option int)) "child parents to ambient" (Some (Span.id root))
        (Span.parent_id child);
      (* explicit parent wins over the ambient one *)
      let other = Causal.span_of c ~parent:child "net.deliver" in
      Alcotest.(check (option int)) "explicit parent" (Some (Span.id child))
        (Span.parent_id other);
      Causal.finish c other;
      Causal.finish c child);
  Alcotest.(check bool) "ambient restored" true (Causal.ambient c = None);
  Causal.finish c root;
  Alcotest.(check bool) "root finished" true (Span.is_finished root)

let test_causal_with_span_nests_and_unwinds_on_raise () =
  let ctx = Span.create ~now:(fun () -> 0.0) () in
  let c = Causal.create ctx in
  Causal.with_span c "outer" (fun () ->
      let outer = Option.get (Causal.ambient c) in
      Causal.with_span c "inner" (fun () ->
          let inner = Option.get (Causal.ambient c) in
          Alcotest.(check (option int)) "inner under outer" (Some (Span.id outer))
            (Span.parent_id inner));
      Alcotest.(check bool) "outer ambient again" true (Causal.ambient c = Some outer));
  (try Causal.with_span c "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "stack unwound after raise" true (Causal.ambient c = None)

let test_engine_causal_scope () =
  let e = Engine.create () in
  let spans = ref [] in
  ignore
    (Sink.attach (Engine.sink e) (fun ~time:_ ev ->
         match ev with
         | Event.Span_finished { name; _ } -> spans := name :: !spans
         | _ -> ()));
  (* without attach_causal every causal hook is an identity *)
  Engine.causal_scope e "invisible" (fun () -> ());
  Alcotest.(check (list string)) "no spans without causal" [] !spans;
  ignore (Engine.attach_causal ~trace_id:7 e);
  Engine.causal_scope e "defense.actuate" (fun () -> ());
  Alcotest.(check (list string)) "scope emits span" [ "defense.actuate" ] !spans

(* ---- Latency ---- *)

let fault action = Event.Fault { action; target = "srv"; detail = "" }
let alarm = Event.Note { label = "signal.alarm"; detail = "rekey-staleness: raw=9 in window 3" }
let directive = Event.Directive { step = 1; strategy = "defender:alarm-rekey"; detail = "" }

let test_latency_chain_extraction () =
  let events =
    [
      (5.0, fault "crash");
      (* opens detection *)
      (10.0, fault "stall");
      (* opens stall-rekey; detection already open *)
      (20.0, alarm);
      (* closes detection, opens reaction *)
      (30.0, directive);
      (* closes reaction *)
      (40.0, Event.Rekey { nodes = 3 });
      (* closes stall-rekey *)
      (50.0, fault "partition");
      (* opens detection, never answered: censored *)
    ]
  in
  let t = Latency.of_events events in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "detection chain" [ (5.0, 20.0) ]
    (Latency.chains t Latency.Detection);
  Alcotest.(check (list (float 1e-9))) "reaction duration" [ 10.0 ]
    (Latency.durations t Latency.Reaction);
  Alcotest.(check (list (float 1e-9))) "stall-rekey duration" [ 30.0 ]
    (Latency.durations t Latency.Stall_rekey);
  Alcotest.(check int) "one censored detection" 1 (Latency.censored t Latency.Detection);
  Alcotest.(check int) "three closed chains" 3 (Latency.total t);
  match Latency.summary t Latency.Detection with
  | None -> Alcotest.fail "detection summary missing"
  | Some s ->
      Alcotest.(check int) "summary count" 1 s.Latency.s_count;
      Alcotest.(check (float 1e-9)) "summary p50" 15.0 s.Latency.s_p50

let test_latency_bookkeeping_never_opens () =
  let t =
    Latency.of_events
      [
        (1.0, fault "plan_installed");
        (2.0, fault "heal");
        (3.0, fault "stall_skip");
        (4.0, fault "resume");
        (5.0, fault "restart");
        (6.0, fault "plan_uninstalled");
      ]
  in
  Alcotest.(check int) "no chains closed" 0 (Latency.total t);
  Alcotest.(check int) "no detection censored" 0 (Latency.censored t Latency.Detection)

let test_latency_merge_order_and_empty_summary () =
  let a = Latency.of_events [ (1.0, fault "crash"); (3.0, alarm) ] in
  let b = Latency.of_events [ (10.0, fault "crash"); (14.0, alarm) ] in
  let m = Latency.merge [ a; b ] in
  Alcotest.(check (list (float 1e-9))) "durations concatenated in list order" [ 2.0; 4.0 ]
    (Latency.durations m Latency.Detection);
  Alcotest.(check bool) "empty kind summarises to None" true
    (Latency.summary Latency.empty Latency.Reaction = None)

let test_latency_trial_boundaries_reset () =
  (* a fault left open in trial 0 must not be closed by trial 1's alarm;
     it counts as censored at the boundary *)
  let events =
    [
      (5.0, fault "crash");
      (0.0, Event.Trial { index = 1; seed = 42; lifetime = Some 1.0 });
      (2.0, alarm);
    ]
  in
  let t = Latency.of_events events in
  Alcotest.(check int) "no closed chains across trials" 0 (Latency.total t);
  Alcotest.(check int) "open chain censored at boundary" 1
    (Latency.censored t Latency.Detection)

let prop_latency_reorder_invariant =
  (* extraction canonicalises each trial segment, so any permutation of
     the event list yields the same chains *)
  let gen_event =
    QCheck.Gen.(
      pair (float_bound_inclusive 100.0) (int_bound 5) >|= fun (time, k) ->
      ( time,
        match k with
        | 0 -> fault "crash"
        | 1 -> fault "stall"
        | 2 -> alarm
        | 3 -> directive
        | 4 -> Event.Rekey { nodes = 1 }
        | _ -> Event.Note { label = "noise"; detail = "" } ))
  in
  QCheck.Test.make ~count:100 ~name:"latency extraction is reorder-invariant"
    QCheck.(
      pair
        (make Gen.(list_size (int_range 0 60) gen_event))
        (make Gen.(int_bound 1000)))
    (fun (events, shuffle_seed) ->
      let st = Random.State.make [| shuffle_seed |] in
      let arr = Array.of_list events in
      for i = Array.length arr - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      let shuffled = Array.to_list arr in
      let canon t =
        List.map
          (fun k -> (Latency.chains t k, Latency.censored t k))
          Latency.kinds
      in
      canon (Latency.of_events events) = canon (Latency.of_events shuffled))

(* ---- Summary alarm section ---- *)

let test_summary_alarm_section () =
  let s =
    Summary.of_events
      [
        (3.0, Event.Note { label = "signal.alarm"; detail = "invalid-rate: raw=4 in window 0" });
        (7.0, alarm);
        (9.0, alarm);
        (1.0, Event.Note { label = "unrelated"; detail = "" });
      ]
  in
  Alcotest.(check (list (triple string int (float 1e-9)))) "per-detector counts"
    [ ("invalid-rate", 1, 3.0); ("rekey-staleness", 2, 7.0) ]
    s.Summary.alarms;
  let rendered = Summary.render s in
  Alcotest.(check bool) "render carries the section" true
    (contains ~needle:"defender signal alarms" rendered);
  Alcotest.(check bool) "detector named" true (contains ~needle:"rekey-staleness" rendered)

let test_summary_no_alarms_no_section () =
  let s = Summary.of_events [ (1.0, Event.Rekey { nodes = 1 }) ] in
  Alcotest.(check bool) "section absent" false
    (contains ~needle:"defender signal alarms" (Summary.render s))

(* ---- timeline CSV golden ---- *)

let test_timeline_csv_golden () =
  let tl, sink = watched_timeline ~width:100.0 () in
  Sink.emit sink ~time:1.0 (Event.Fault { action = "crash"; target = "s"; detail = "" });
  Sink.emit sink ~time:50.0 (Event.Invalid_observed { proxy = 0 });
  Sink.emit sink ~time:101.0 (Event.Rekey { nodes = 1 });
  Sink.emit sink ~time:150.0 (Event.Probe
    { kind = Event.Direct; tier = Event.Proxy_tier; target = 0; outcome = Event.Crashed });
  Timeline.finish tl;
  let sg = Signal.of_timeline tl in
  let csv = Fortress_util.Table.to_csv (Signal.table ~timeline:tl sg) in
  let golden =
    "win,vt,invalid,blocked,crash,stale,alarm,faults\n\
     0,\"[0, 100)\",0.01,0,0.01,0,-,crash:1\n\
     1,\"[100, 200)\",0,0,0.01,0,-,-\n"
  in
  Alcotest.(check string) "timeline --csv golden" golden csv

let () =
  Alcotest.run "fortress_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "integers compact" `Quick test_json_integers_compact;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "nested array depth" `Quick test_json_nested_depth;
          Alcotest.test_case "error offsets" `Quick test_json_error_offsets;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "event",
        [
          Alcotest.test_case "json round-trip" `Quick test_event_json_roundtrip;
          Alcotest.test_case "labels and verbosity" `Quick test_event_labels_and_verbosity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and kind clash" `Quick
            test_metrics_counters_and_kind_clash;
          Alcotest.test_case "histogram, snapshot, reset" `Quick
            test_metrics_histogram_snapshot_reset;
          Alcotest.test_case "histogram value and quantile" `Quick
            test_metrics_histogram_value_and_quantile;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "window boundaries" `Quick test_timeline_window_boundaries;
          Alcotest.test_case "ring eviction and late drop" `Quick
            test_timeline_ring_eviction_and_late_drop;
          Alcotest.test_case "gap compression" `Quick test_timeline_gap_compression;
          Alcotest.test_case "close hooks fire once in order" `Quick
            test_timeline_hooks_fire_once_in_order;
          Alcotest.test_case "pooled replay window totals" `Quick
            test_timeline_pooled_replay_totals;
          Alcotest.test_case "ignores signal alarms" `Quick test_timeline_ignores_signal_alarms;
          Alcotest.test_case "subscriber allocates nothing" `Quick
            test_timeline_subscriber_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_timeline_counts_match_counting;
        ] );
      ( "signal",
        [
          Alcotest.test_case "staleness CUSUM alarm" `Quick test_signal_staleness_cusum_alarm;
          Alcotest.test_case "rate burst alarms, steady silent" `Quick
            test_signal_rate_burst_alarm_and_steady_silence;
          Alcotest.test_case "streaming equals batch" `Quick test_signal_streaming_equals_batch;
          Alcotest.test_case "alarms emit without feedback" `Quick
            test_signal_alarms_emit_without_feedback;
          Alcotest.test_case "table renders fault alignment" `Quick test_signal_table_renders;
          Alcotest.test_case "engine attach_telemetry" `Quick test_engine_attach_telemetry;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "exposition format" `Quick test_openmetrics_exposition;
          Alcotest.test_case "adversarial labels" `Quick
            test_openmetrics_adversarial_labels;
          Alcotest.test_case "name sanitization" `Quick test_openmetrics_sanitize_names;
        ] );
      ( "span",
        [ Alcotest.test_case "lifecycle" `Quick test_span_lifecycle ] );
      ( "sink",
        [
          Alcotest.test_case "subscribers and detach" `Quick test_sink_subscribers_and_detach;
          Alcotest.test_case "jsonl round-trip" `Quick test_sink_jsonl_roundtrip;
          Alcotest.test_case "counting and memory" `Quick test_sink_counting_and_memory;
          Alcotest.test_case "line deterministic round-trip" `Quick
            test_sink_line_deterministic_roundtrip;
          Alcotest.test_case "file flushes and closes" `Quick test_sink_file_flushes_and_closes;
          Alcotest.test_case "digesting allocation" `Quick test_sink_digesting_allocation;
          QCheck_alcotest.to_alcotest prop_line_matches_reference;
          QCheck_alcotest.to_alcotest prop_digesting_matches_lines;
        ] );
      ( "engine",
        [
          Alcotest.test_case "emit feeds metrics and trace" `Quick
            test_engine_emit_feeds_metrics_and_trace;
          Alcotest.test_case "spans on virtual time" `Quick test_engine_spans_use_virtual_time;
        ] );
      ( "summary",
        [
          Alcotest.test_case "campaign trace consistent with laws" `Quick
            test_summary_of_campaign_consistent;
          Alcotest.test_case "jsonl file round-trip" `Quick test_summary_jsonl_file_roundtrip;
          Alcotest.test_case "malformed lines" `Quick test_summary_malformed_lines;
          Alcotest.test_case "fault breakdown" `Quick test_summary_fault_breakdown;
          Alcotest.test_case "per-label rate column" `Quick test_summary_rate_column;
          Alcotest.test_case "no faults, no section" `Quick test_summary_no_faults_no_section;
        ] );
      ( "validation",
        [
          Alcotest.test_case "trial events through sink" `Quick
            test_trial_events_through_validation;
        ] );
      ( "causal",
        [
          Alcotest.test_case "id base and parentage" `Quick
            test_causal_id_base_and_parentage;
          Alcotest.test_case "with_span nests and unwinds" `Quick
            test_causal_with_span_nests_and_unwinds_on_raise;
          Alcotest.test_case "engine causal_scope" `Quick test_engine_causal_scope;
        ] );
      ( "latency",
        [
          Alcotest.test_case "chain extraction" `Quick test_latency_chain_extraction;
          Alcotest.test_case "bookkeeping never opens" `Quick
            test_latency_bookkeeping_never_opens;
          Alcotest.test_case "merge order and empty summary" `Quick
            test_latency_merge_order_and_empty_summary;
          Alcotest.test_case "trial boundaries reset" `Quick
            test_latency_trial_boundaries_reset;
          QCheck_alcotest.to_alcotest prop_latency_reorder_invariant;
        ] );
      ( "alarm summary",
        [
          Alcotest.test_case "per-detector section" `Quick test_summary_alarm_section;
          Alcotest.test_case "no alarms, no section" `Quick test_summary_no_alarms_no_section;
        ] );
      ( "timeline golden",
        [ Alcotest.test_case "signal table csv" `Quick test_timeline_csv_golden ] );
    ]
