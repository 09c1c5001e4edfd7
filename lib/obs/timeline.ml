(* Windowed aggregation over the event plane.

   A timeline is a plain subscriber: it never emits, never mutates the
   engine, and costs a couple of hashtable bumps per event, so attaching
   one cannot perturb the simulation or its trace digest. Windows are
   fixed-width in virtual time, keyed by [floor (t / width)], and kept in
   a bounded ring: when more than [capacity] windows are live the oldest
   is evicted.

   Virtual time is NOT assumed monotonic. Pooled streams — e.g. an inject
   run replaying per-trial buffers back-to-back, each restarting near
   t = 0 — revisit old windows; those late events land in the retained
   window for their timestamp (or are counted in [dropped] if the ring
   has moved past it) without re-firing close hooks. Close hooks fire
   only when the frontier (highest window index seen) advances, which on
   a monotonic stream is exactly once per window, in order. *)

type window = {
  index : int;
  t_lo : float;
  t_hi : float;
  total : int;
  counts : (string * int) list;
}

type acc = { a_index : int; mutable a_total : int; a_counts : (string, int ref) Hashtbl.t }

(* lifetime count + latest timestamp per key, merged into one record so
   the per-event path pays one [totals] lookup instead of two *)
type key_stat = { mutable k_n : int; mutable k_last : float }

(* Interned counter for one of the fixed event-plane keys. The subscriber
   runs once per event, and hashing key strings there is the dominant
   subscriber cost — a slot turns the common case (every constructor
   except Note, plus probe kinds/outcomes) into array indexing. A slot
   buffers the count for a single window ([s_widx]/[s_wcount]); the
   buffered count is flushed into that window's hashtable when the slot
   retargets or the window closes, so per-window views stay exact even on
   non-monotone streams. *)
type slot = {
  s_key : string;
  mutable s_n : int;  (* lifetime count *)
  mutable s_last : float;  (* latest timestamp *)
  mutable s_widx : int;  (* window the buffered count belongs to *)
  mutable s_wcount : int;  (* count not yet flushed into that window *)
}

type t = {
  width : float;
  capacity : int;
  wins : (int, acc) Hashtbl.t;
  mutable cur : acc option;  (* cache for the frontier window's acc *)
  mutable lo : int;  (* lowest retained index; meaningful when hi >= 0 *)
  mutable hi : int;  (* frontier: highest window opened; -1 before any event *)
  mutable opened : int;  (* windows ever opened, gap windows included *)
  mutable dropped : int;  (* late events older than the retained ring *)
  mutable seen : int;
  slots : slot array;  (* fixed keys; dynamic keys fall back to [totals] *)
  totals : (string, key_stat) Hashtbl.t;
  mutable hooks : (window -> unit) list;
  win_hist : Metrics.histogram option;
  mutable finished : bool;
}

(* Keys must mirror Sink.counting's exactly (the qcheck property depends
   on it). Indices are the contract between [static_keys], [slot_id],
   [kind_slot], and [outcome_slot]. *)
let static_keys =
  [|
    "events.probe";
    "events.compromise";
    "events.rekey";
    "events.recover";
    "events.step";
    "events.invalid_observed";
    "events.source_blocked";
    "events.source_rotated";
    "events.request_submitted";
    "events.request_completed";
    "events.reply_rejected";
    "events.msg_delivered";
    "events.msg_dropped";
    "events.failover";
    "events.repl";
    "events.trial";
    "events.span";
    "events.fault";
    "events.directive";
    "probe.direct";
    "probe.indirect";
    "probe.launchpad";
    "probe.crash";
    "probe.intrusion";
    "probe.blocked";
  |]

(* -1 = no interned slot; Note labels are open-ended *)
let slot_id = function
  | Event.Probe _ -> 0
  | Event.Compromise _ -> 1
  | Event.Rekey _ -> 2
  | Event.Recover _ -> 3
  | Event.Step _ -> 4
  | Event.Invalid_observed _ -> 5
  | Event.Source_blocked _ -> 6
  | Event.Source_rotated _ -> 7
  | Event.Request_submitted _ -> 8
  | Event.Request_completed _ -> 9
  | Event.Reply_rejected _ -> 10
  | Event.Msg_delivered _ -> 11
  | Event.Msg_dropped _ -> 12
  | Event.Failover _ -> 13
  | Event.Repl _ -> 14
  | Event.Trial _ -> 15
  | Event.Span_finished _ -> 16
  | Event.Fault _ -> 17
  | Event.Directive _ -> 18
  | Event.Note _ -> -1

let kind_slot = function Event.Direct -> 19 | Event.Indirect -> 20 | Event.Launchpad -> 21
let outcome_slot = function Event.Crashed -> 22 | Event.Intruded -> 23 | Event.Blocked -> 24

let create ?(capacity = 512) ?registry ~width () =
  if not (width > 0.0) then invalid_arg "Timeline.create: width must be positive";
  if capacity <= 0 then invalid_arg "Timeline.create: capacity must be positive";
  let win_hist =
    (* events-per-window distribution; lives in the caller's registry so it
       shows up in snapshots and the OpenMetrics exposition *)
    Option.map
      (fun r -> Metrics.histogram r ~lo:0.0 ~hi:16384.0 ~bins:64 "timeline.window_events")
      registry
  in
  {
    width;
    capacity;
    wins = Hashtbl.create 64;
    cur = None;
    lo = 0;
    hi = -1;
    opened = 0;
    dropped = 0;
    seen = 0;
    slots =
      Array.map
        (fun key -> { s_key = key; s_n = 0; s_last = neg_infinity; s_widx = min_int; s_wcount = 0 })
        static_keys;
    totals = Hashtbl.create 32;
    hooks = [];
    win_hist;
    finished = false;
  }

let width t = t.width
let window_count t = t.opened
let dropped t = t.dropped
let events_seen t = t.seen
let on_window t f = t.hooks <- t.hooks @ [ f ]

(* Window counts live in two places: the acc's hashtable (dynamic keys and
   flushed slot counts) and any slot still buffering for this window. A
   key can appear in both — e.g. a Note whose label collides with a fixed
   one — so the merge is additive. *)
let counts_of t acc =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter (fun k r -> Hashtbl.replace tbl k !r) acc.a_counts;
  Array.iter
    (fun s ->
      if s.s_widx = acc.a_index && s.s_wcount > 0 then
        let prev = Option.value ~default:0 (Hashtbl.find_opt tbl s.s_key) in
        Hashtbl.replace tbl s.s_key (prev + s.s_wcount))
    t.slots;
  Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let view t acc =
  {
    index = acc.a_index;
    t_lo = float_of_int acc.a_index *. t.width;
    t_hi = float_of_int (acc.a_index + 1) *. t.width;
    total = acc.a_total;
    counts = counts_of t acc;
  }

let close_window t index =
  match Hashtbl.find_opt t.wins index with
  | None -> ()
  | Some acc ->
      let v = view t acc in
      List.iter (fun f -> f v) t.hooks

let open_window t index =
  let acc = { a_index = index; a_total = 0; a_counts = Hashtbl.create 8 } in
  Hashtbl.replace t.wins index acc;
  t.opened <- t.opened + 1;
  while index - t.lo + 1 > t.capacity do
    Hashtbl.remove t.wins t.lo;
    t.lo <- t.lo + 1
  done;
  acc

let advance_to t index =
  (* A pathological jump (e.g. a bogus timestamp) would otherwise open one
     window per step of the gap; windows the ring would immediately evict
     are skipped, and skipped windows still count in [opened]. *)
  if index - t.hi > t.capacity then begin
    close_window t t.hi;
    let skipped = index - t.hi - t.capacity in
    t.opened <- t.opened + skipped;
    Hashtbl.reset t.wins;
    t.hi <- index - t.capacity;
    t.lo <- t.hi + 1
  end;
  while t.hi < index do
    if t.hi >= t.lo then close_window t t.hi;
    ignore (open_window t (t.hi + 1));
    t.hi <- t.hi + 1
  done

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let bump_by tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl key (ref n)

(* dynamic keys: Note labels and "fault.<action>" refinements *)
let record t acc ~time key =
  bump acc.a_counts key;
  match Hashtbl.find_opt t.totals key with
  | Some s ->
      s.k_n <- s.k_n + 1;
      if time > s.k_last then s.k_last <- time
  | None -> Hashtbl.replace t.totals key { k_n = 1; k_last = time }

(* interned keys: lifetime stats are plain field bumps; the window count
   buffers in the slot and is flushed into the previous window's
   hashtable only when the slot retargets (evicted windows discard) *)
let record_slot t ~time ~index i =
  let s = Array.unsafe_get t.slots i in
  s.s_n <- s.s_n + 1;
  if time > s.s_last then s.s_last <- time;
  if s.s_widx = index then s.s_wcount <- s.s_wcount + 1
  else begin
    (if s.s_wcount > 0 then
       match Hashtbl.find_opt t.wins s.s_widx with
       | Some old -> bump_by old.a_counts s.s_key s.s_wcount
       | None -> ());
    s.s_widx <- index;
    s.s_wcount <- 1
  end

let index_of t time = int_of_float (Float.floor (time /. t.width))

let subscriber t ~time ev =
  (* Signal alarms are published onto the same sink the timeline watches;
     aggregating them would feed the detector its own output (and re-enter
     this subscriber mid-advance), so the telemetry plane is blind to
     them. Only Note events can carry that label. *)
  match ev with
  | Event.Note { label = "signal.alarm"; _ } -> ()
  | _ -> begin
  t.seen <- t.seen + 1;
  let index = max 0 (index_of t time) in
  let acc =
    (* fast path: consecutive events overwhelmingly share the frontier
       window, so skip the [wins] lookup when the cached acc matches *)
    match t.cur with
    | Some a when a.a_index = index -> Some a
    | _ ->
        let resolved =
          if t.hi < 0 then begin
            t.lo <- index;
            t.hi <- index;
            Some (open_window t index)
          end
          else if index > t.hi then begin
            advance_to t index;
            Hashtbl.find_opt t.wins index
          end
          else Hashtbl.find_opt t.wins index
        in
        if index = t.hi then t.cur <- resolved;
        resolved
  in
  match acc with
  | None -> t.dropped <- t.dropped + 1
  | Some acc -> (
      acc.a_total <- acc.a_total + 1;
      let index = acc.a_index in
      (match slot_id ev with
      | -1 -> record t acc ~time ("events." ^ Event.label ev)
      | i -> record_slot t ~time ~index i);
      match ev with
      | Event.Probe { kind; outcome; _ } ->
          record_slot t ~time ~index (kind_slot kind);
          record_slot t ~time ~index (outcome_slot outcome)
      | Event.Fault { action; _ } -> record t acc ~time ("fault." ^ action)
      | _ -> ())
  end

let retained t =
  if t.hi < 0 then []
  else
    List.filter_map
      (fun i -> Hashtbl.find_opt t.wins i)
      (List.init (t.hi - t.lo + 1) (fun k -> t.lo + k))

let finish t =
  if not t.finished then begin
    t.finished <- true;
    if t.hi >= 0 then close_window t t.hi;
    (* observed only now: on a pooled stream later trials keep landing in
       windows the frontier has long passed *)
    Option.iter
      (fun h -> List.iter (fun acc -> Metrics.observe h (float_of_int acc.a_total)) (retained t))
      t.win_hist
  end

let windows t = List.map (view t) (retained t)

let totals t =
  let tbl = Hashtbl.create 32 in
  Hashtbl.iter (fun k s -> Hashtbl.replace tbl k s.k_n) t.totals;
  Array.iter
    (fun s ->
      if s.s_n > 0 then
        let prev = Option.value ~default:0 (Hashtbl.find_opt tbl s.s_key) in
        Hashtbl.replace tbl s.s_key (prev + s.s_n))
    t.slots;
  Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total t key =
  let dyn = match Hashtbl.find_opt t.totals key with Some s -> s.k_n | None -> 0 in
  Array.fold_left (fun n s -> if s.s_key = key then n + s.s_n else n) dyn t.slots

let last_seen t key =
  let dyn = Option.map (fun s -> s.k_last) (Hashtbl.find_opt t.totals key) in
  Array.fold_left
    (fun best s ->
      if s.s_key = key && s.s_n > 0 then
        match best with Some b when b >= s.s_last -> best | _ -> Some s.s_last
      else best)
    dyn t.slots
let count w key = Option.value ~default:0 (List.assoc_opt key w.counts)
let rate t w key = float_of_int (count w key) /. t.width
