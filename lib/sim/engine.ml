module Obs = Fortress_obs
module Prof = Fortress_prof.Profiler

let fire_phase = Prof.register "engine.fire"

type event = { fire : unit -> unit; mutable cancelled : bool }

type handle = event

(* what a vacated queue slot holds, so the queue keeps no fired or
   cancelled event's closure alive; never handed out, never mutated *)
let vacant = { fire = ignore; cancelled = true }

(* The event queue is a binary min-heap on (time, seq) kept in three
   parallel arrays, slots [0, size) live: times unboxed in a float array,
   insertion numbers, events. [seq] is unique, so the pop order is the
   one total order on (time, seq) whatever the heap's shape. The queue
   lives in this module because dune's dev profile compiles with -opaque:
   nothing is inlined across modules, and a float returned from another
   module is boxed. *)
type t = {
  mutable clock : float;
  mutable seq : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable events : event array;
  mutable size : int;
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
      times = [||];
      seqs = [||];
      events = [||];
      size = 0;
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

(* ---- the queue ---- *)

let grow t =
  let cap = Array.length t.times in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let times = Array.make cap' 0.0 and seqs = Array.make cap' 0 in
  let events = Array.make cap' vacant in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.events 0 events 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.events <- events

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.events dst (Array.unsafe_get t.events src)

(* Inlined at its three callers, so [time] is never boxed. The new event
   has the largest seq yet, so it passes exactly the ancestors with a
   later time: the hole moves up while the parent's time is greater. *)
let[@inline] enqueue t ~time fire =
  let ev = { fire; cancelled = false } in
  if t.size = Array.length t.times then grow t;
  t.seq <- t.seq + 1;
  let hole = ref t.size in
  while !hole > 0 && time < Array.unsafe_get t.times ((!hole - 1) / 2) do
    let parent = (!hole - 1) / 2 in
    move t ~src:parent ~dst:!hole;
    hole := parent
  done;
  Array.unsafe_set t.times !hole time;
  Array.unsafe_set t.seqs !hole t.seq;
  Array.unsafe_set t.events !hole ev;
  t.size <- t.size + 1;
  ev

let[@inline] earlier (time : float) (seq : int) time' seq' =
  time < time' || (time = time' && seq < seq')

(* Drop slot 0: the last entry fills the hole sifted down from the root,
   and its old slot is cleared. *)
let remove_top t =
  let times = t.times and seqs = t.seqs in
  let last = t.size - 1 in
  t.size <- last;
  let time = Array.unsafe_get times last and seq = Array.unsafe_get seqs last in
  let ev = Array.unsafe_get t.events last in
  Array.unsafe_set t.events last vacant;
  if last > 0 then begin
    let hole = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !hole) + 1 and r = (2 * !hole) + 2 in
      let c =
        if
          r < last
          && earlier (Array.unsafe_get times r) (Array.unsafe_get seqs r)
               (Array.unsafe_get times l) (Array.unsafe_get seqs l)
        then r
        else l
      in
      if c < last && earlier (Array.unsafe_get times c) (Array.unsafe_get seqs c) time seq
      then begin
        move t ~src:c ~dst:!hole;
        hole := c
      end
      else sifting := false
    done;
    Array.unsafe_set times !hole time;
    Array.unsafe_set seqs !hole seq;
    Array.unsafe_set t.events !hole ev
  end

let set_delay_interceptor t x = t.delay_xform <- x

let schedule t ~delay f =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Engine.schedule: NaN delay"
       else "Engine.schedule: negative delay");
  match t.delay_xform with
  | None -> enqueue t ~time:(t.clock +. delay) f
  | Some x ->
      let delay = Float.max 0.0 (x delay) in
      if Float.is_nan delay then invalid_arg "Engine.schedule: the delay interceptor returned NaN";
      enqueue t ~time:(t.clock +. delay) f

let schedule_at t ~time f =
  if not (time >= t.clock) then
    invalid_arg
      (if Float.is_nan time then "Engine.schedule_at: NaN time"
       else "Engine.schedule_at: time in the past");
  enqueue t ~time f

let cancel ev = ev.cancelled <- true
let is_cancelled ev = ev.cancelled

let every t ~period ?until f =
  if not (period > 0.0) then invalid_arg "Engine.every: period must be positive";
  (* The returned handle outlives individual firings: it is re-armed by
     pointing its [fire] at each successive scheduled event. We model this
     with a control cell checked before each firing. *)
  let control = { fire = ignore; cancelled = false } in
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

(* cancelled events stay queued until popped *)
let pending t =
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    if not (Array.unsafe_get t.events i).cancelled then incr live
  done;
  !live

let rec step t =
  if t.size = 0 then false
  else begin
    let time = Array.unsafe_get t.times 0 and ev = Array.unsafe_get t.events 0 in
    remove_top t;
    if ev.cancelled then step t
    else begin
      assert (time >= t.clock);
      t.clock <- time;
      if Prof.is_enabled () then Prof.record fire_phase ev.fire else ev.fire ();
      true
    end
  end

(* With [until], the loop looks at the top entry only: when that is a
   cancelled event within [limit], [step] skips it and fires the next live
   event, even one past [limit]. *)
let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      while t.size > 0 && Array.unsafe_get t.times 0 <= limit do
        ignore (step t)
      done;
      if t.clock < limit then t.clock <- limit

let record t ~label detail = emit t (Obs.Event.Note { label; detail })

let attach_telemetry ?(alarms = true) t =
  let timeline = Obs.Timeline.create ~width:100.0 () in
  ignore (Obs.Sink.attach t.sink (Obs.Timeline.subscriber timeline));
  let emit = if alarms then Some (fun ~time ev -> Obs.Sink.emit t.sink ~time ev) else None in
  let signals = Obs.Signal.create ?emit timeline in
  (timeline, signals)
