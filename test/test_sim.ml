open Fortress_sim
module Sink = Fortress_obs.Sink
module Event = Fortress_obs.Event
module Metrics = Fortress_obs.Metrics

(* ---- Heap ----
   The binary heap of (priority, seq) entries the engine's queue replaced,
   kept as the reference its pop order is checked against. *)

module Heap = struct
  type 'a entry = { priority : float; seq : int; value : 'a }
  type 'a t = { mutable data : 'a entry array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let length t = t.size
  let less a b = a.priority < b.priority || (a.priority = b.priority && a.seq < b.seq)

  let grow t entry =
    let cap = Array.length t.data in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else 2 * cap in
      let data = Array.make ncap entry in
      Array.blit t.data 0 data 0 t.size;
      t.data <- data
    end

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t.data.(i) t.data.(parent) then begin
        let tmp = t.data.(i) in
        t.data.(i) <- t.data.(parent);
        t.data.(parent) <- tmp;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
    if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
    if !smallest <> i then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(!smallest);
      t.data.(!smallest) <- tmp;
      sift_down t !smallest
    end

  let push t ~priority ~seq value =
    let entry = { priority; seq; value } in
    grow t entry;
    t.data.(t.size) <- entry;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.data.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.data.(0) <- t.data.(t.size);
        sift_down t 0
      end;
      Some (top.priority, top.seq, top.value)
    end

  let peek t =
    if t.size = 0 then None
    else
      let top = t.data.(0) in
      Some (top.priority, top.seq, top.value)

  let contents t =
    List.init t.size (fun i ->
        let { priority; seq; value } = t.data.(i) in
        (priority, seq, value))
end

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~priority:3.0 ~seq:1 "c";
  Heap.push h ~priority:1.0 ~seq:2 "a";
  Heap.push h ~priority:2.0 ~seq:3 "b";
  let pop () = match Heap.pop h with Some (_, _, v) -> v | None -> "empty" in
  Alcotest.(check string) "min first" "a" (pop ());
  Alcotest.(check string) "then" "b" (pop ());
  Alcotest.(check string) "then" "c" (pop ());
  Alcotest.(check string) "empty" "empty" (pop ())

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~priority:1.0 ~seq:10 "first";
  Heap.push h ~priority:1.0 ~seq:20 "second";
  Heap.push h ~priority:1.0 ~seq:30 "third";
  let pop () = match Heap.pop h with Some (_, _, v) -> v | None -> "empty" in
  Alcotest.(check string) "fifo" "first" (pop ());
  Alcotest.(check string) "fifo" "second" (pop ());
  Alcotest.(check string) "fifo" "third" (pop ())

let test_heap_large_random () =
  let p = Fortress_util.Prng.create ~seed:99 in
  let h = Heap.create () in
  for i = 1 to 1000 do
    Heap.push h ~priority:(Fortress_util.Prng.float p) ~seq:i i
  done;
  Alcotest.(check int) "length" 1000 (Heap.length h);
  let last = ref neg_infinity in
  let ok = ref true in
  for _ = 1 to 1000 do
    match Heap.pop h with
    | Some (pr, _, _) ->
        if pr < !last then ok := false;
        last := pr
    | None -> ok := false
  done;
  Alcotest.(check bool) "sorted drain" true !ok

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.(check bool) "peek empty" true (Heap.peek h = None);
  Heap.push h ~priority:5.0 ~seq:1 "x";
  (match Heap.peek h with
  | Some (p, _, v) ->
      Alcotest.(check (float 0.0)) "peek priority" 5.0 p;
      Alcotest.(check string) "peek value" "x" v
  | None -> Alcotest.fail "expected an element");
  Alcotest.(check int) "peek does not remove" 1 (Heap.length h)

(* ---- Engine ---- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> order := "b" :: !order));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> order := "a" :: !order));
  ignore (Engine.schedule e ~delay:3.0 (fun () -> order := "c" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> order := 1 :: !order));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> order := 2 :: !order));
  Engine.run e;
  Alcotest.(check (list int)) "insertion order at same time" [ 1; 2 ] (List.rev !order)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check bool) "handle reports cancelled" true (Engine.is_cancelled h)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         times := Engine.now e :: !times;
         ignore (Engine.schedule e ~delay:0.5 (fun () -> times := Engine.now e :: !times))));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested event time" [ 1.0; 1.5 ] (List.rev !times)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr count));
  ignore (Engine.schedule e ~delay:10.0 (fun () -> incr count));
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "only first fired" 1 !count;
  Alcotest.(check (float 0.0)) "clock advanced to limit" 5.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "second fires later" 2 !count

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1.0) (fun () -> ())))

let test_engine_schedule_at_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:1.0 (fun () -> ())))

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.every e ~period:1.0 (fun () -> incr count) in
  ignore (Engine.schedule e ~delay:5.5 (fun () -> Engine.cancel h));
  Engine.run ~until:20.0 e;
  Alcotest.(check int) "fires until cancelled" 5 !count

let test_engine_every_until () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.every e ~period:1.0 ~until:3.5 (fun () -> incr count));
  Engine.run e;
  Alcotest.(check int) "bounded series" 3 !count

let test_engine_pending () =
  let e = Engine.create () in
  let h1 = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.cancel h1;
  Alcotest.(check int) "one live after cancel" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "none after run" 0 (Engine.pending e)

let test_engine_step () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr count));
  Alcotest.(check bool) "stepped" true (Engine.step e);
  Alcotest.(check int) "event ran" 1 !count;
  Alcotest.(check bool) "empty" false (Engine.step e)

let test_engine_determinism () =
  let run_once seed =
    let e = Engine.create ~prng:(Fortress_util.Prng.create ~seed) () in
    let log = ref [] in
    for i = 1 to 20 do
      let delay = Fortress_util.Prng.float (Engine.prng e) *. 10.0 in
      ignore (Engine.schedule e ~delay (fun () -> log := (i, Engine.now e) :: !log))
    done;
    Engine.run e;
    !log
  in
  Alcotest.(check bool) "same seed, same execution" true (run_once 5 = run_once 5);
  Alcotest.(check bool) "different seed, different execution" true (run_once 5 <> run_once 6)

let test_engine_cancel_periodic_mid_series () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.every e ~period:2.0 (fun () -> incr count) in
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "two firings by t=5" 2 !count;
  Engine.cancel h;
  Engine.run ~until:50.0 e;
  Alcotest.(check int) "no firings after cancel" 2 !count

let test_engine_every_invalid_period () =
  let e = Engine.create () in
  Alcotest.check_raises "zero period" (Invalid_argument "Engine.every: period must be positive")
    (fun () -> ignore (Engine.every e ~period:0.0 (fun () -> ())))

let test_engine_zero_delay () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~delay:0.0 (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "zero-delay event fires" true !fired;
  Alcotest.(check (float 0.0)) "clock unchanged" 0.0 (Engine.now e)

let test_engine_record_reaches_trace () =
  let e = Engine.create () in
  let mem, recent = Sink.memory () in
  ignore (Sink.attach (Engine.sink e) mem);
  ignore (Engine.schedule e ~delay:3.0 (fun () -> Engine.record e ~label:"evt" "hello"));
  Engine.run e;
  match recent () with
  | [ (time, Event.Note { label; detail }) ] ->
      Alcotest.(check string) "label" "evt" label;
      Alcotest.(check string) "detail" "hello" detail;
      Alcotest.(check (float 0.0)) "stamped at fire time" 3.0 time
  | _ -> Alcotest.fail "expected exactly one note"

let test_engine_fresh_sink_unobserved () =
  (* every reader attaches its own subscriber; the engine attaches none *)
  Alcotest.(check int) "no subscriber" 0 (Sink.subscriber_count (Engine.sink (Engine.create ())))

let test_engine_run_until_exact_boundary () =
  (* an event exactly at the limit is executed, not stranded *)
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~delay:10.0 (fun () -> fired := true));
  Engine.run ~until:10.0 e;
  Alcotest.(check bool) "boundary event fires" true !fired

(* ---- the engine's queue against the reference heap ----
   Random schedule, cancel and step sequences run on an engine and, in
   parallel, on the reference heap driven as the engine drove it before:
   pop the minimum, skip it if cancelled, fire it otherwise. Every step
   must fire the same event, and [pending] must equal the model's count
   of queued uncancelled events. *)

type queue_op = Schedule of int | Cancel of int | Step

(* delays from a short list, so equal times (hence seq ties) are common *)
let delays = [| 0.0; 0.5; 1.0; 1.0; 2.5; 0.125; 7.0; 1e-3 |]

let run_against_reference ops =
  let e = Engine.create () in
  let reference = Heap.create () in
  let handles = ref [||] and cancelled = ref [||] and fired = ref (-1) in
  let scheduled = ref 0 and live = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let rec reference_step () =
    match Heap.pop reference with
    | None -> -1
    | Some (_, _, id) -> if !cancelled.(id) then reference_step () else id
  in
  List.iter
    (fun op ->
      (match op with
      | Schedule k ->
          let id = !scheduled in
          incr scheduled;
          let delay = delays.(k mod Array.length delays) in
          Heap.push reference ~priority:(Engine.now e +. delay) ~seq:id id;
          let h = Engine.schedule e ~delay (fun () -> fired := id) in
          handles := Array.append !handles [| h |];
          cancelled := Array.append !cancelled [| false |];
          incr live
      | Cancel k ->
          if !scheduled > 0 then begin
            let id = k mod !scheduled in
            (* cancelling a fired or cancelled event changes no count *)
            let queued = List.exists (fun (_, _, v) -> v = id) (Heap.contents reference) in
            if queued && not !cancelled.(id) then decr live;
            !cancelled.(id) <- true;
            Engine.cancel !handles.(id)
          end
      | Step ->
          fired := -1;
          let stepped = Engine.step e in
          let expected = reference_step () in
          check (stepped = (expected >= 0));
          check (!fired = expected);
          if expected >= 0 then decr live);
      check (Engine.pending e = !live))
    ops;
  (* drain: the rest fires in the reference's order too *)
  let rec drain () =
    fired := -1;
    let stepped = Engine.step e in
    let expected = reference_step () in
    check (stepped = (expected >= 0) && !fired = expected);
    if stepped then drain ()
  in
  drain ();
  check (Engine.pending e = 0);
  !ok

let gen_queue_ops =
  QCheck.Gen.(
    list_size (int_range 0 600)
      (frequency
         [ (5, map (fun k -> Schedule k) (int_bound 1000)); (1, map (fun k -> Cancel k) nat);
           (3, return Step) ]))

let prop_queue_matches_reference =
  QCheck.Test.make ~count:300 ~name:"queue pops the reference heap's order"
    (QCheck.make gen_queue_ops) run_against_reference

(* one long run past every growth step (16, 32, ..., 8192 slots: 4,863
   entries are queued at the peak), pushes outnumbering pops, then a full
   drain *)
let test_queue_growth_matches_reference () =
  let rand = Random.State.make [| 27 |] in
  let ops =
    List.init 12_000 (fun i ->
        if i mod 3 <> 2 then Schedule (Random.State.int rand 1000)
        else if Random.State.int rand 4 = 0 then Cancel (Random.State.bits rand)
        else Step)
  in
  Alcotest.(check bool) "same order, same pending" true (run_against_reference ops)

let test_schedule_step_allocation () =
  let e = Engine.create () in
  let f () = () in
  for _ = 1 to 64 do
    ignore (Engine.schedule e ~delay:1.0 f)
  done;
  Engine.run e;
  let rounds = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Engine.schedule e ~delay:1.0 f);
    ignore (Engine.step e)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  (* the event record (3 words) and the clock's boxed time (2) *)
  Alcotest.(check bool) (Printf.sprintf "%.2f words per event <= 5" words) true (words <= 5.0)

(* A payload only the event's closure references: once the queue lets go
   of a fired or cancelled event, a major collection frees it. *)
let[@inline never] schedule_watched e weak i ~delay =
  let payload = Bytes.make 16 'p' in
  Weak.set weak i (Some payload);
  Engine.schedule e ~delay (fun () -> ignore (Sys.opaque_identity payload))

let test_popped_events_not_retained () =
  let e = Engine.create () in
  let weak = Weak.create 4 in
  ignore (schedule_watched e weak 0 ~delay:1.0);
  Engine.cancel (schedule_watched e weak 1 ~delay:2.0);
  ignore (schedule_watched e weak 2 ~delay:3.0);
  ignore (schedule_watched e weak 3 ~delay:4.0);
  let alive () = List.init 4 (fun i -> Weak.check weak i) in
  Gc.full_major ();
  Alcotest.(check (list bool)) "all queued, all alive" [ true; true; true; true ] (alive ());
  ignore (Engine.step e);
  Gc.full_major ();
  Alcotest.(check (list bool)) "fired one freed" [ false; true; true; true ] (alive ());
  (* this step pops the cancelled event, then fires the third *)
  ignore (Engine.step e);
  Gc.full_major ();
  Alcotest.(check (list bool)) "cancelled one freed once popped" [ false; false; false; true ]
    (alive ());
  Engine.run e;
  Gc.full_major ();
  Alcotest.(check (list bool)) "drained queue holds nothing" [ false; false; false; false ]
    (alive ())

let test_engine_nan_rejected () =
  let e = Engine.create () in
  let f () = () in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule: NaN delay") (fun () ->
      ignore (Engine.schedule e ~delay:Float.nan f));
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_at: NaN time") (fun () ->
      ignore (Engine.schedule_at e ~time:Float.nan f));
  Alcotest.check_raises "NaN period" (Invalid_argument "Engine.every: period must be positive")
    (fun () -> ignore (Engine.every e ~period:Float.nan f));
  Engine.set_delay_interceptor e (Some (fun d -> d *. Float.nan));
  Alcotest.check_raises "NaN from the interceptor"
    (Invalid_argument "Engine.schedule: the delay interceptor returned NaN") (fun () ->
      ignore (Engine.schedule e ~delay:1.0 f));
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

(* ---- Trace tail and counters ----
   The readers an engine leaves to its caller: [Sink.tail] keeps the last
   few state changes for printing, [Sink.counting] keeps per-label counts
   in the caller's registry. *)

let note sink i =
  Sink.emit sink ~time:(float_of_int i) (Event.Note { label = "t"; detail = string_of_int i })

let tail_lines render =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (render ()))

(* the detail is the last word of a tail line *)
let tail_details render =
  List.map (fun l -> List.hd (List.rev (String.split_on_char ' ' l))) (tail_lines render)

let test_trace_record () =
  (* only `Info events take a slot; per-message `Debug events do not *)
  let e = Engine.create () in
  let tail, render = Sink.tail ~lines:10 in
  ignore (Sink.attach (Engine.sink e) tail);
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Engine.record e ~label:"a" "first"));
  ignore
    (Engine.schedule e ~delay:1.5 (fun () ->
         Engine.emit e (Event.Msg_delivered { src = 0; dst = 1 })));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> Engine.record e ~label:"b" "second"));
  Engine.run e;
  Alcotest.(check string) "Info events only, oldest first, exact format"
    "[    1.0000] a                  first\n[    2.0000] b                  second\n" (render ())

let test_trace_ring_eviction () =
  let sink = Sink.create () in
  let tail, render = Sink.tail ~lines:3 in
  ignore (Sink.attach sink tail);
  for i = 1 to 5 do note sink i done;
  Alcotest.(check (list string)) "last three retained" [ "3"; "4"; "5" ] (tail_details render)

let test_trace_counters () =
  (* a note counts under its own label *)
  let e = Engine.create () in
  let registry = Metrics.create () in
  ignore (Sink.attach (Engine.sink e) (Sink.counting registry));
  Engine.record e ~label:"probes" "a";
  Engine.record e ~label:"probes" "b";
  Engine.record e ~label:"crashes" "c";
  Alcotest.(check int) "probes" 2 (Metrics.find_counter registry "events.probes");
  Alcotest.(check int) "missing" 0 (Metrics.find_counter registry "events.nothing");
  Alcotest.(check (list string)) "sorted counters"
    [ "events.crashes"; "events.probes" ]
    (List.map fst (Metrics.snapshot registry))

let test_trace_wraparound_ordering () =
  (* after several full wraps, entries still come back oldest first *)
  let sink = Sink.create () in
  let tail, render = Sink.tail ~lines:4 in
  ignore (Sink.attach sink tail);
  for i = 1 to 11 do note sink i done;
  Alcotest.(check (list string)) "oldest-to-newest across the wrap"
    [ "8"; "9"; "10"; "11" ] (tail_details render)

let test_trace_counters_survive_eviction () =
  (* the tail forgets, the counters do not *)
  let sink = Sink.create () in
  let registry = Metrics.create () in
  let tail, render = Sink.tail ~lines:2 in
  ignore (Sink.attach sink tail);
  ignore (Sink.attach sink (Sink.counting registry));
  for i = 1 to 50 do note sink i done;
  Alcotest.(check int) "only lines entries retained" 2 (List.length (tail_lines render));
  Alcotest.(check int) "counter unaffected by eviction" 50 (Metrics.find_counter registry "events.t")

let test_trace_dump_limit () =
  let sink = Sink.create () in
  let tail, render = Sink.tail ~lines:2 in
  ignore (Sink.attach sink tail);
  for i = 1 to 10 do note sink i done;
  Alcotest.(check string) "two newline-terminated lines"
    "[    9.0000] t                  9\n[   10.0000] t                  10\n" (render ())

let test_trace_tail_rejects_non_positive () =
  List.iter
    (fun lines ->
      Alcotest.check_raises (Printf.sprintf "lines = %d" lines)
        (Invalid_argument "Sink.tail: lines must be positive") (fun () ->
          ignore (Sink.tail ~lines)))
    [ 0; -1 ]

let test_trace_tail_pinned_on_deployment () =
  (* pinned bytes: the line format, the Info filter and the event order of
     a seeded run must not drift *)
  let module Deployment = Fortress_core.Deployment in
  let module Campaign = Fortress_attack.Campaign in
  let d =
    Deployment.create
      { Deployment.default_config with keyspace = Fortress_defense.Keyspace.of_size 256; seed = 7 }
  in
  let tail, render = Sink.tail ~lines:4 in
  ignore (Sink.attach (Engine.sink (Deployment.engine d)) tail);
  ignore (Fortress_core.Deployment.obfuscate d ~mode:Fortress_core.Obfuscation.PO ~period:100.0);
  let c =
    Campaign.launch d (Campaign.make_config ~omega:8 ~kappa:0.5 ~period:100.0 ~seed:8 ())
  in
  ignore (Campaign.run_until_compromise c ~max_steps:12);
  Alcotest.(check string) "tail"
    "[ 1100.0000] step               attack step 12 begins\n\
     [ 1133.3333] compromise         proxy 2 compromised\n\
     [ 1200.0000] rekey              rekeyed 6 nodes (proactive obfuscation)\n\
     [ 1200.0000] step               attack step 13 begins\n"
    (render ())

let () =
  Alcotest.run "fortress_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "large random drain" `Quick test_heap_large_random;
          Alcotest.test_case "peek" `Quick test_heap_peek;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo at same instant" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "cancellation" `Quick test_engine_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
          Alcotest.test_case "schedule_at past rejected" `Quick test_engine_schedule_at_past;
          Alcotest.test_case "periodic events" `Quick test_engine_every;
          Alcotest.test_case "periodic with until" `Quick test_engine_every_until;
          Alcotest.test_case "pending count" `Quick test_engine_pending;
          Alcotest.test_case "single step" `Quick test_engine_step;
          Alcotest.test_case "seeded determinism" `Quick test_engine_determinism;
          Alcotest.test_case "cancel periodic mid-series" `Quick
            test_engine_cancel_periodic_mid_series;
          Alcotest.test_case "every invalid period" `Quick test_engine_every_invalid_period;
          Alcotest.test_case "zero delay" `Quick test_engine_zero_delay;
          Alcotest.test_case "record reaches trace" `Quick test_engine_record_reaches_trace;
          Alcotest.test_case "fresh sink unobserved" `Quick test_engine_fresh_sink_unobserved;
          Alcotest.test_case "run until exact boundary" `Quick
            test_engine_run_until_exact_boundary;
          Alcotest.test_case "NaN rejected" `Quick test_engine_nan_rejected;
        ] );
      ( "queue",
        [
          QCheck_alcotest.to_alcotest prop_queue_matches_reference;
          Alcotest.test_case "growth matches the reference" `Quick
            test_queue_growth_matches_reference;
          Alcotest.test_case "schedule and step allocation" `Quick test_schedule_step_allocation;
          Alcotest.test_case "popped events not retained" `Quick test_popped_events_not_retained;
        ] );
      ( "trace",
        [
          Alcotest.test_case "record and read" `Quick test_trace_record;
          Alcotest.test_case "ring eviction" `Quick test_trace_ring_eviction;
          Alcotest.test_case "counters" `Quick test_trace_counters;
          Alcotest.test_case "wraparound ordering" `Quick test_trace_wraparound_ordering;
          Alcotest.test_case "counters survive eviction" `Quick
            test_trace_counters_survive_eviction;
          Alcotest.test_case "dump limit" `Quick test_trace_dump_limit;
          Alcotest.test_case "tail rejects non-positive lines" `Quick
            test_trace_tail_rejects_non_positive;
          Alcotest.test_case "tail pinned on a seeded deployment" `Quick
            test_trace_tail_pinned_on_deployment;
        ] );
    ]
