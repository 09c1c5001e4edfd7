module Obs = Fortress_obs
module Prof = Fortress_prof.Profiler

let fire_phase = Prof.register "engine.fire"

type event = { fire : unit -> unit; mutable cancelled : bool; mutable live : bool }

type handle = event

type t = {
  mutable clock : float;
  mutable seq : int;
  queue : event Heap.t;
  prng : Fortress_util.Prng.t;
  sink : Obs.Sink.t;
  spans : Obs.Span.ctx;
  mutable delay_xform : (float -> float) option;
  mutable causal : Obs.Causal.t option;
}

let create ?prng () =
  let prng = match prng with Some p -> p | None -> Fortress_util.Prng.create ~seed:0 in
  let t =
    {
      clock = 0.0;
      seq = 0;
      queue = Heap.create ();
      prng;
      sink = Obs.Sink.create ();
      spans = Obs.Span.create ~now:(fun () -> 0.0) ();
      delay_xform = None;
      causal = None;
    }
  in
  Obs.Span.set_clock t.spans (fun () -> t.clock);
  Obs.Span.set_on_finish t.spans (fun ev -> Obs.Sink.emit t.sink ~time:t.clock ev);
  t

let now t = t.clock
let prng t = t.prng
let sink t = t.sink
let spans t = t.spans
let emit t ev = Obs.Sink.emit t.sink ~time:t.clock ev
let span t ?parent name = Obs.Span.start t.spans ?parent name
let finish_span t sp = Obs.Span.finish t.spans sp

let attach_causal ?(trace_id = 0) t =
  let c = Obs.Causal.create ~trace_id t.spans in
  t.causal <- Some c;
  c

let causal t = t.causal

let causal_scope t ?attrs name f =
  match t.causal with None -> f () | Some c -> Obs.Causal.with_span c ?attrs name f

let causal_ambient t sp f =
  match t.causal with None -> f () | Some c -> Obs.Causal.with_ambient c sp f

let enqueue t ~time fire =
  let ev = { fire; cancelled = false; live = true } in
  t.seq <- t.seq + 1;
  Heap.push t.queue ~priority:time ~seq:t.seq ev;
  ev

let set_delay_interceptor t x = t.delay_xform <- x

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  let delay =
    match t.delay_xform with None -> delay | Some x -> Float.max 0.0 (x delay)
  in
  enqueue t ~time:(t.clock +. delay) f

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  enqueue t ~time f

let cancel ev =
  ev.cancelled <- true;
  ev.live <- false

let is_cancelled ev = ev.cancelled

let every t ~period ?until f =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  (* The returned handle outlives individual firings: it is re-armed by
     pointing its [fire] at each successive scheduled event. We model this
     with a control cell checked before each firing. *)
  let control = { fire = (fun () -> ()); cancelled = false; live = true } in
  let rec arm () =
    let deadline = t.clock +. period in
    let fire_once () =
      if not control.cancelled then begin
        f ();
        match until with
        | Some u when t.clock +. period > u -> ()
        | _ -> arm ()
      end
    in
    (match until with
    | Some u when deadline > u -> ()
    | _ -> ignore (enqueue t ~time:deadline fire_once))
  in
  arm ();
  control

let pending t =
  (* count live events lazily: heap length may include cancelled ones *)
  let count = ref 0 in
  let rec drain acc =
    match Heap.pop t.queue with
    | None -> acc
    | Some (p, s, ev) ->
        if not ev.cancelled then incr count;
        drain ((p, s, ev) :: acc)
  in
  let all = drain [] in
  List.iter (fun (p, s, ev) -> Heap.push t.queue ~priority:p ~seq:s ev) all;
  !count

let rec step t =
  match Heap.pop t.queue with
  | None -> false
  | Some (time, _, ev) ->
      if ev.cancelled then step t
      else begin
        assert (time >= t.clock);
        t.clock <- time;
        ev.live <- false;
        if Prof.is_enabled () then Prof.record fire_phase ev.fire else ev.fire ();
        true
      end

let rec run ?until t =
  match until with
  | None -> if step t then run t
  | Some limit -> (
      match Heap.peek t.queue with
      | Some (time, _, _) when time <= limit ->
          ignore (step t);
          run ~until:limit t
      | Some _ | None -> if t.clock < limit then t.clock <- limit)

let record t ~label detail = emit t (Obs.Event.Note { label; detail })

let attach_telemetry ?(alarms = true) t =
  let timeline = Obs.Timeline.create ~width:100.0 () in
  ignore (Obs.Sink.attach t.sink (Obs.Timeline.subscriber timeline));
  let emit = if alarms then Some (fun ~time ev -> Obs.Sink.emit t.sink ~time ev) else None in
  let signals = Obs.Signal.create ?emit timeline in
  (timeline, signals)
