module Profiler = Fortress_prof.Profiler
module Convergence = Fortress_prof.Convergence
module Trace_export = Fortress_prof.Trace_export
module Json = Fortress_obs.Json
module Event = Fortress_obs.Event
module Sink = Fortress_obs.Sink

(* a hand-cranked clock so timing assertions are exact *)
let fake_time = ref 0.0
let tick dt = fake_time := !fake_time +. dt

let with_profiler f =
  Profiler.reset ();
  Profiler.set_clock (fun () -> !fake_time);
  Profiler.set_sample_capacity 0;
  Profiler.enable ();
  Fun.protect ~finally:(fun () ->
      Profiler.disable ();
      Profiler.reset ();
      Profiler.set_sample_capacity 0)
    f

let entry name =
  match List.find_opt (fun (e : Profiler.entry) -> e.name = name) (Profiler.snapshot ()) with
  | Some e -> e
  | None -> Alcotest.failf "no snapshot entry for phase %s" name

let feq = Alcotest.(check (float 1e-9))

(* ---- profiler ---- *)

let test_self_vs_total () =
  let outer = Profiler.register "t.outer" in
  let inner = Profiler.register "t.inner" in
  with_profiler (fun () ->
      Profiler.record outer (fun () ->
          tick 1.0;
          Profiler.record inner (fun () -> tick 2.0);
          tick 0.5);
      let o = entry "t.outer" and i = entry "t.inner" in
      feq "outer total" 3.5 o.total_s;
      feq "outer self" 1.5 o.self_s;
      feq "inner total" 2.0 i.total_s;
      feq "inner self" 2.0 i.self_s;
      Alcotest.(check int) "outer count" 1 o.count;
      Alcotest.(check int) "inner count" 1 i.count)

let test_recursion_counts_outermost_total_once () =
  let p = Profiler.register "t.rec" in
  with_profiler (fun () ->
      let rec go n =
        Profiler.record p (fun () ->
            tick 1.0;
            if n > 0 then go (n - 1))
      in
      go 2;
      let e = entry "t.rec" in
      Alcotest.(check int) "count" 3 e.count;
      (* self time sums every frame; total only the outermost *)
      feq "self" 3.0 e.self_s;
      feq "total" 3.0 e.total_s)

let test_disabled_records_nothing () =
  Profiler.reset ();
  Profiler.disable ();
  let p = Profiler.register "t.disabled" in
  let r = Profiler.record p (fun () -> 42) in
  Alcotest.(check int) "result passes through" 42 r;
  Alcotest.(check bool) "no snapshot entries" true
    (not (List.exists (fun (e : Profiler.entry) -> e.name = "t.disabled") (Profiler.snapshot ())))

let test_exception_safety () =
  let p = Profiler.register "t.raise" in
  with_profiler (fun () ->
      (try Profiler.record p (fun () -> tick 1.0; failwith "boom")
       with Failure _ -> ());
      let e = entry "t.raise" in
      Alcotest.(check int) "frame closed" 1 e.count;
      feq "time attributed" 1.0 e.self_s)

let test_mismatched_leave_ignored () =
  let p = Profiler.register "t.mismatch" in
  with_profiler (fun () ->
      Profiler.leave p;
      (* spurious leave must not corrupt later frames *)
      Profiler.record p (fun () -> tick 1.0);
      let e = entry "t.mismatch" in
      Alcotest.(check int) "count" 1 e.count;
      feq "self" 1.0 e.self_s)

let test_sample_ring () =
  let p = Profiler.register "t.ring" in
  Profiler.reset ();
  Profiler.set_clock (fun () -> !fake_time);
  Profiler.set_sample_capacity 3;
  Profiler.enable ();
  Fun.protect ~finally:(fun () ->
      Profiler.disable ();
      Profiler.reset ();
      Profiler.set_sample_capacity 0)
    (fun () ->
      for _ = 1 to 5 do
        Profiler.record p (fun () -> tick 1.0)
      done;
      let samples = Profiler.samples () in
      Alcotest.(check int) "bounded" 3 (List.length samples);
      (* the ring keeps the newest frames, oldest first *)
      let starts = List.map (fun (s : Profiler.sample) -> s.s_start) samples in
      Alcotest.(check (list (float 1e-9))) "newest kept" [ 2.0; 3.0; 4.0 ] starts;
      List.iter (fun (s : Profiler.sample) -> feq "dur" 1.0 s.s_dur) samples)

let test_to_json_shape () =
  let p = Profiler.register "t.json" in
  with_profiler (fun () ->
      Profiler.record p (fun () -> tick 1.0);
      match Profiler.to_json () with
      | Json.List (Json.Obj fields :: _) ->
          Alcotest.(check (option string))
            "phase name" (Some "t.json")
            (Option.bind (List.assoc_opt "phase" fields) Json.str)
      | _ -> Alcotest.fail "expected a list of phase objects")

(* ---- convergence ---- *)

let test_convergence_checkpoints () =
  let m = Convergence.create ~batch:4 () in
  let cps = ref 0 in
  for i = 1 to 10 do
    match Convergence.observe m (Some (float_of_int (100 + (i mod 3)))) with
    | Some cp ->
        incr cps;
        Alcotest.(check int) "checkpoint at batch boundary" 0 (cp.Convergence.after mod 4)
    | None -> ()
  done;
  Alcotest.(check int) "two checkpoints in 10 trials" 2 !cps;
  Alcotest.(check int) "total" 10 (Convergence.total m);
  Alcotest.(check int) "observed" 10 (Convergence.observed m)

let test_convergence_tight_stream_converges () =
  let m = Convergence.create ~batch:5 ~target_rel:0.05 () in
  (* tiny relative spread: converges almost immediately *)
  for i = 1 to 20 do
    ignore (Convergence.observe m (Some (1000.0 +. float_of_int (i mod 2))))
  done;
  Alcotest.(check bool) "converged" true (Convergence.converged m);
  Alcotest.(check (option int)) "at first checkpoint" (Some 5) (Convergence.converged_at m)

let test_convergence_wide_stream_projects () =
  let m = Convergence.create ~batch:5 ~target_rel:0.05 () in
  (* alternating 10/1000: huge relative CI at n=10 *)
  for i = 1 to 10 do
    ignore (Convergence.observe m (Some (if i mod 2 = 0 then 10.0 else 1000.0)))
  done;
  Alcotest.(check bool) "not converged" false (Convergence.converged m);
  match Convergence.projected_trials m with
  | None -> Alcotest.fail "expected a projection"
  | Some n -> Alcotest.(check bool) "projection exceeds sample" true (n > 10)

let test_convergence_censored () =
  let m = Convergence.create ~batch:2 () in
  ignore (Convergence.observe m (Some 5.0));
  ignore (Convergence.observe m None);
  Alcotest.(check int) "total" 2 (Convergence.total m);
  Alcotest.(check int) "censored" 1 (Convergence.censored m);
  Alcotest.(check int) "observed" 1 (Convergence.observed m);
  feq "mean ignores censored" 5.0 (Convergence.mean m)

let test_convergence_json_roundtrip () =
  let m = Convergence.create ~batch:2 () in
  for i = 1 to 6 do
    ignore (Convergence.observe m (Some (float_of_int (50 + i))))
  done;
  let s = Json.to_string (Convergence.to_json m) in
  match Json.parse s with
  | Error e -> Alcotest.failf "convergence json does not reparse: %s" e
  | Ok json ->
      Alcotest.(check (option int)) "trials" (Some 6)
        (Option.bind (Json.member "trials" json) Json.int);
      let cps = Option.bind (Json.member "checkpoints" json) Json.list in
      Alcotest.(check (option int)) "checkpoints" (Some 3) (Option.map List.length cps)

(* ---- trace export ---- *)

let sample_events =
  [
    (0.0, Event.Step { n = 1 });
    ( 4.0,
      Event.Span_finished
        {
          id = 1;
          parent = None;
          name = "attack.step";
          start_time = 0.0;
          duration = 4.0;
          attrs = [ ("step", "1") ];
        } );
    ( 5.0,
      Event.Span_finished
        {
          id = 2;
          parent = Some 1;
          name = "proxy.handle";
          start_time = 4.0;
          duration = 1.0;
          attrs = [ ("node", "proxy-0") ];
        } );
    (6.0, Event.Fault { action = "crash"; target = "server-1"; detail = "" });
  ]

let test_trace_export_roundtrip () =
  let samples = [ { Profiler.s_phase = "engine.fire"; s_start = 0.001; s_dur = 0.002 } ] in
  let doc = Trace_export.make ~samples sample_events in
  let s = Json.to_string doc in
  match Json.parse s with
  | Error e -> Alcotest.failf "trace.json does not reparse: %s" e
  | Ok json -> (
      Alcotest.(check (option string))
        "displayTimeUnit" (Some "ms")
        (Option.bind (Json.member "displayTimeUnit" json) Json.str);
      match Option.bind (Json.member "traceEvents" json) Json.list with
      | None -> Alcotest.fail "traceEvents missing"
      | Some rows ->
          let phs =
            List.filter_map (fun r -> Option.bind (Json.member "ph" r) Json.str) rows
          in
          Alcotest.(check bool) "has complete events" true (List.mem "X" phs);
          Alcotest.(check bool) "has instants" true (List.mem "i" phs);
          Alcotest.(check bool) "has metadata" true (List.mem "M" phs);
          (* every event carries the mandatory Trace Event Format fields *)
          List.iter
            (fun r ->
              Alcotest.(check bool) "name" true (Json.member "name" r <> None);
              Alcotest.(check bool) "pid" true (Json.member "pid" r <> None))
            rows)

let test_trace_export_lanes () =
  let doc = Trace_export.make sample_events in
  match Json.member "traceEvents" doc with
  | Some (Json.List rows) ->
      let lane_of name =
        List.find_map
          (fun r ->
            match (Json.member "name" r, Json.member "ph" r) with
            | Some (Json.Str n), Some (Json.Str "X") when n = name ->
                Option.bind (Json.member "tid" r) Json.int
            | _ -> None)
          rows
      in
      (* span with a node attr gets its own lane; span without one falls
         back to the name prefix — they must differ *)
      let a = lane_of "attack.step" and b = lane_of "proxy.handle" in
      Alcotest.(check bool) "both assigned" true (a <> None && b <> None);
      Alcotest.(check bool) "distinct lanes" true (a <> b)
  | _ -> Alcotest.fail "traceEvents missing"

let test_trace_export_virtual_time_scaled () =
  let doc = Trace_export.make ~scale:1000.0 sample_events in
  match Json.member "traceEvents" doc with
  | Some (Json.List rows) ->
      let dur =
        List.find_map
          (fun r ->
            match Json.member "name" r with
            | Some (Json.Str "attack.step") -> Option.bind (Json.member "dur" r) Json.num
            | _ -> None)
          rows
      in
      Alcotest.(check (option (float 1e-9))) "scaled duration" (Some 4000.0) dur
  | _ -> Alcotest.fail "traceEvents missing"

let span ~id ?parent ~name ~start ~dur ?(attrs = []) () =
  ( start +. dur,
    Event.Span_finished
      { id; parent; name; start_time = start; duration = dur; attrs } )

let causal_events =
  [
    span ~id:1 ~name:"client.request" ~start:0.0 ~dur:5.0 () ;
    span ~id:2 ~parent:1 ~name:"net.send" ~start:0.5 ~dur:0.0
      ~attrs:[ ("node", "client"); ("dst", "proxy-0") ] ();
    span ~id:3 ~parent:2 ~name:"net.deliver" ~start:2.5 ~dur:0.1
      ~attrs:[ ("node", "proxy-0") ] ();
  ]

let rows_of doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List rows) -> rows
  | _ -> Alcotest.fail "traceEvents missing"

let flows_of doc =
  List.filter_map
    (fun r ->
      match (Json.member "ph" r, Json.member "name" r) with
      | Some (Json.Str ph), Some (Json.Str "net.flow") when ph = "s" || ph = "f" ->
          Some
            ( ph,
              Option.bind (Json.member "tid" r) Json.int,
              Option.bind (Json.member "id" r) Json.num )
      | _ -> None)
    (rows_of doc)

let test_trace_export_flow_arrows () =
  let doc = Trace_export.make causal_events in
  match flows_of doc with
  | [ ("s", s_tid, s_id); ("f", f_tid, f_id) ] ->
      Alcotest.(check bool) "bound by the deliver span id" true
        (s_id = Some 3.0 && f_id = Some 3.0);
      Alcotest.(check bool) "arrow crosses lanes" true (s_tid <> f_tid && s_tid <> None);
      (* the finish end carries the enclosing-slice binding point *)
      let f_bp =
        List.find_map
          (fun r ->
            match Json.member "ph" r with
            | Some (Json.Str "f") -> Option.bind (Json.member "bp" r) Json.str
            | _ -> None)
          (rows_of doc)
      in
      Alcotest.(check (option string)) "bp=e on the finish" (Some "e") f_bp
  | flows -> Alcotest.failf "expected one s/f flow pair, got %d events" (List.length flows)

let test_trace_export_no_flows_without_causal_spans () =
  (* a deliver whose parent is not a net.send (or is absent) draws no arrow *)
  let doc = Trace_export.make sample_events in
  Alcotest.(check int) "no flow events" 0 (List.length (flows_of doc));
  let orphan =
    [ span ~id:9 ~name:"net.deliver" ~start:1.0 ~dur:0.1 ~attrs:[ ("node", "x") ] () ]
  in
  Alcotest.(check int) "orphan deliver draws no arrow" 0
    (List.length (flows_of (Trace_export.make orphan)))

let test_trace_export_keeps_and_streams () =
  (* a capture of only the kept events renders the same document, and the
     streamed file holds the same bytes as the one-string rendering, across
     many of write's buffer spills *)
  let events =
    List.concat
      (List.init 2000 (fun i ->
           let t = float_of_int i in
           [
             (t, Event.Msg_delivered { src = i mod 5; dst = 0 });
             span ~id:(i + 1) ~name:"proxy.handle" ~start:t ~dur:0.5
               ~attrs:[ ("node", "proxy-" ^ string_of_int (i mod 3)) ] ();
             (t, Event.Fault { action = (if i mod 2 = 0 then "drop" else "crash");
                               target = "link"; detail = "" });
           ]))
  in
  let doc = Trace_export.make events in
  let kept = List.filter (fun (_, ev) -> Trace_export.keeps ev) events in
  Alcotest.(check int) "messages and link faults dropped" 3000 (List.length kept);
  Alcotest.(check string) "same document from the kept events" (Json.to_string doc)
    (Json.to_string (Trace_export.make kept));
  let path = Filename.temp_file "fortress-trace" ".json" in
  Trace_export.write ~path doc;
  let written = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "spans several buffers" true (String.length written > 200_000);
  Alcotest.(check string) "streamed bytes" (Json.to_string doc ^ "\n") written

(* ---- trial integration ---- *)

let const_sampler steps _prng = Some steps

let test_trial_monitor_emits_convergence_notes () =
  let sink = Sink.create () in
  let seen = ref 0 in
  ignore
    (Sink.attach sink (fun ~time:_ ev ->
         match ev with Event.Note { label = "convergence"; _ } -> incr seen | _ -> ()));
  let m = Convergence.create ~batch:10 () in
  let r =
    Fortress_mc.Trial.run ~sink ~monitor:m ~trials:30 ~seed:7 ~sampler:(const_sampler 100) ()
  in
  Alcotest.(check int) "all trials run (no early stop)" 30 r.Fortress_mc.Trial.trials;
  Alcotest.(check int) "one note per checkpoint" 3 !seen

let test_trial_early_stop_truncates () =
  let m = Convergence.create ~batch:10 ~target_rel:0.05 () in
  let r =
    Fortress_mc.Trial.run ~monitor:m ~early_stop:true ~trials:1000 ~seed:7
      ~sampler:(const_sampler 100) ()
  in
  Alcotest.(check int) "stopped at first checkpoint" 10 r.Fortress_mc.Trial.trials;
  Alcotest.(check (option int)) "monitor agrees" (Some 10) (Convergence.converged_at m)

let test_trial_monitor_does_not_change_results () =
  let sampler prng = Some (1 + Fortress_util.Prng.int prng ~bound:100) in
  let plain = Fortress_mc.Trial.run ~trials:50 ~seed:11 ~sampler () in
  let m = Convergence.create ~batch:10 () in
  let monitored = Fortress_mc.Trial.run ~monitor:m ~trials:50 ~seed:11 ~sampler () in
  Alcotest.(check (array (float 1e-9)))
    "identical lifetimes" plain.Fortress_mc.Trial.lifetimes
    monitored.Fortress_mc.Trial.lifetimes

let () =
  Alcotest.run "fortress_prof"
    [
      ( "profiler",
        [
          Alcotest.test_case "self vs total attribution" `Quick test_self_vs_total;
          Alcotest.test_case "recursion counts outermost total once" `Quick
            test_recursion_counts_outermost_total_once;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "mismatched leave ignored" `Quick test_mismatched_leave_ignored;
          Alcotest.test_case "sample ring bounded" `Quick test_sample_ring;
          Alcotest.test_case "to_json shape" `Quick test_to_json_shape;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "batch checkpoints" `Quick test_convergence_checkpoints;
          Alcotest.test_case "tight stream converges" `Quick
            test_convergence_tight_stream_converges;
          Alcotest.test_case "wide stream projects" `Quick test_convergence_wide_stream_projects;
          Alcotest.test_case "censored bookkeeping" `Quick test_convergence_censored;
          Alcotest.test_case "json reparses" `Quick test_convergence_json_roundtrip;
        ] );
      ( "trace_export",
        [
          Alcotest.test_case "document reparses" `Quick test_trace_export_roundtrip;
          Alcotest.test_case "lane assignment" `Quick test_trace_export_lanes;
          Alcotest.test_case "virtual time scaling" `Quick test_trace_export_virtual_time_scaled;
          Alcotest.test_case "flow arrows on causal edges" `Quick
            test_trace_export_flow_arrows;
          Alcotest.test_case "no flows without causal spans" `Quick
            test_trace_export_no_flows_without_causal_spans;
          Alcotest.test_case "capture filter and streamed write" `Quick
            test_trace_export_keeps_and_streams;
        ] );
      ( "trial",
        [
          Alcotest.test_case "monitor emits convergence notes" `Quick
            test_trial_monitor_emits_convergence_notes;
          Alcotest.test_case "early stop truncates" `Quick test_trial_early_stop_truncates;
          Alcotest.test_case "monitor does not change results" `Quick
            test_trial_monitor_does_not_change_results;
        ] );
    ]
