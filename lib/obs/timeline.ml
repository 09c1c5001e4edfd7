(* Windowed aggregation over the event plane.

   A timeline is a plain subscriber: it never emits, never mutates the
   engine, and costs a couple of array bumps per event, so attaching one
   cannot perturb the simulation or its trace digest. Windows are
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

type acc = { a_index : int; mutable a_total : int; a_counts : Counts.t }

(* the [cur] of a timeline with no window cached; index -1 matches no
   event, so it is never counted into *)
let no_window = { a_index = -1; a_total = 0; a_counts = Counts.create () }

type t = {
  width : float;
  capacity : int;
  wins : (int, acc) Hashtbl.t;
  mutable cur : acc;  (* the window the last event landed in, or [no_window] *)
  mutable lo : int;  (* lowest retained index; meaningful when hi >= 0 *)
  mutable hi : int;  (* frontier: highest window opened; -1 before any event *)
  mutable opened : int;  (* windows ever opened, gap windows included *)
  mutable dropped : int;  (* late events older than the retained ring *)
  mutable seen : int;
  totals : Counts.t;
  mutable hooks : (window -> unit) list;
  mutable finished : bool;
}

let create ?(capacity = 512) ~width () =
  if not (width > 0.0) then invalid_arg "Timeline.create: width must be positive";
  if capacity <= 0 then invalid_arg "Timeline.create: capacity must be positive";
  {
    width;
    capacity;
    wins = Hashtbl.create 64;
    cur = no_window;
    lo = 0;
    hi = -1;
    opened = 0;
    dropped = 0;
    seen = 0;
    totals = Counts.create ();
    hooks = [];
    finished = false;
  }

let width t = t.width
let window_count t = t.opened
let dropped t = t.dropped
let events_seen t = t.seen
let on_window t f = t.hooks <- t.hooks @ [ f ]

let view t acc =
  {
    index = acc.a_index;
    t_lo = float_of_int acc.a_index *. t.width;
    t_hi = float_of_int (acc.a_index + 1) *. t.width;
    total = acc.a_total;
    counts = Counts.to_list acc.a_counts;
  }

let close_window t index =
  match Hashtbl.find_opt t.wins index with
  | None -> ()
  | Some acc ->
      let v = view t acc in
      List.iter (fun f -> f v) t.hooks

let open_window t index =
  Hashtbl.replace t.wins index { a_index = index; a_total = 0; a_counts = Counts.create () };
  t.opened <- t.opened + 1;
  while index - t.lo + 1 > t.capacity do
    Hashtbl.remove t.wins t.lo;
    if t.cur.a_index = t.lo then t.cur <- no_window;
    t.lo <- t.lo + 1
  done

let advance_to t index =
  (* A pathological jump (e.g. a bogus timestamp) would otherwise open one
     window per step of the gap; windows the ring would immediately evict
     are skipped, and skipped windows still count in [opened]. *)
  if index - t.hi > t.capacity then begin
    close_window t t.hi;
    let skipped = index - t.hi - t.capacity in
    t.opened <- t.opened + skipped;
    Hashtbl.reset t.wins;
    t.cur <- no_window;
    t.hi <- index - t.capacity;
    t.lo <- t.hi + 1
  end;
  while t.hi < index do
    if t.hi >= t.lo then close_window t t.hi;
    open_window t (t.hi + 1);
    t.hi <- t.hi + 1
  done

(* The retained window owning [index], opening windows up to it when it
   lies past the frontier; [no_window] when the ring has moved past it. *)
let window_at t index =
  if t.hi < 0 then begin
    t.lo <- index;
    t.hi <- index;
    open_window t index
  end
  else if index > t.hi then advance_to t index;
  match Hashtbl.find t.wins index with
  | acc ->
      t.cur <- acc;
      acc
  | exception Not_found -> no_window

let subscriber t ~time ev =
  (* Signal alarms are published onto the same sink the timeline watches;
     aggregating them would feed the detector its own output (and re-enter
     this subscriber mid-advance), so the telemetry plane is blind to
     them. Only Note events can carry that label. *)
  match ev with
  | Event.Note { label = "signal.alarm"; _ } -> ()
  | _ ->
      t.seen <- t.seen + 1;
      let index = Int.max 0 (int_of_float (Float.floor (time /. t.width))) in
      (* consecutive events overwhelmingly share a window *)
      let acc = if index = t.cur.a_index then t.cur else window_at t index in
      if acc == no_window then t.dropped <- t.dropped + 1
      else begin
        acc.a_total <- acc.a_total + 1;
        Counts.add acc.a_counts ev;
        Counts.add t.totals ev
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
    if t.hi >= 0 then close_window t t.hi
  end

let windows t = List.map (view t) (retained t)
let totals t = Counts.to_list t.totals
let total t key = Counts.find t.totals key
let count w key = Option.value ~default:0 (List.assoc_opt key w.counts)
let rate t w key = float_of_int (count w key) /. t.width
