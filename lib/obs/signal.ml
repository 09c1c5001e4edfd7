(* Defender-visible signal series derived from a Timeline.

   Each signal folds the window sequence through an EWMA smoother and a
   one-sided CUSUM detector:

     s_0 = 0
     s_t = max 0 (s_{t-1} + raw_t - reference_t - slack)
     alarm when s_t > threshold, then s resets to 0

   where reference_t is the pre-update EWMA for signals whose operating
   point drifts (probe/block/crash rates) and 0 for signals expected to
   sit at zero (rekey staleness). Everything is a deterministic fold over
   the window sequence, so identical timelines — e.g. jobs 1 vs jobs 4
   join-replays — yield identical series and alarms. *)

module Table = Fortress_util.Table

type kind = Invalid_probe_rate | Blocked_source_rate | Crash_burst | Rekey_staleness

let all = [ Invalid_probe_rate; Blocked_source_rate; Crash_burst; Rekey_staleness ]

let kind_name = function
  | Invalid_probe_rate -> "invalid-probe-rate"
  | Blocked_source_rate -> "blocked-source-rate"
  | Crash_burst -> "crash-burst"
  | Rekey_staleness -> "rekey-staleness"

let short_name = function
  | Invalid_probe_rate -> "invalid"
  | Blocked_source_rate -> "blocked"
  | Crash_burst -> "crash"
  | Rekey_staleness -> "stale"

type params = {
  ewma_alpha : float;
  cusum_slack : float;
  cusum_threshold : float;
  adaptive_ref : bool;
}

(* constants, tuned for the canonical 100-vt step width *)
let params_of = function
  | Invalid_probe_rate | Blocked_source_rate | Crash_burst ->
      (* rates are per unit virtual time: one extra event per canonical
         100-vt step is +0.01, so slack forgives one stray event per
         window and ~3 sustained extra events per step trip the alarm *)
      { ewma_alpha = 0.3; cusum_slack = 0.01; cusum_threshold = 0.05; adaptive_ref = true }
  | Rekey_staleness ->
      (* staleness is in virtual-time units and should sit near zero; a
         stall longer than ~1.5 canonical periods starts accumulating *)
      { ewma_alpha = 0.3; cusum_slack = 150.0; cusum_threshold = 250.0; adaptive_ref = false }

type point = {
  window : int;
  t_lo : float;
  t_hi : float;
  raw : float;
  ewma : float;
  cusum : float;
  alarm : bool;
}

type state = {
  st_params : params;
  mutable st_have : bool;
  mutable st_ewma : float;
  mutable st_cusum : float;
  mutable st_points_rev : point list;
}

type t = {
  sg_width : float;
  emit : (time:float -> Event.t -> unit) option;
  states : (kind * state) list;
  mutable last_boundary : int option;
  mutable alarms_rev : (kind * point) list;
}

let make ?emit timeline =
  let states =
    List.map
      (fun k ->
        ( k,
          {
            st_params = params_of k;
            st_have = false;
            st_ewma = 0.0;
            st_cusum = 0.0;
            st_points_rev = [];
          } ))
      all
  in
  { sg_width = Timeline.width timeline; emit; states; last_boundary = None; alarms_rev = [] }

let raw_rate w key width = float_of_int (Timeline.count w key) /. width

let process_window t (w : Timeline.window) =
  let boundary = Timeline.count w "events.rekey" + Timeline.count w "events.recover" > 0 in
  let since =
    match t.last_boundary with None -> 0 | Some i -> w.Timeline.index - i
  in
  let staleness = if boundary then 0.0 else float_of_int since *. t.sg_width in
  t.last_boundary <-
    (if boundary || t.last_boundary = None then Some w.Timeline.index else t.last_boundary);
  List.iter
    (fun (kind, st) ->
      let raw =
        match kind with
        | Invalid_probe_rate -> raw_rate w "events.invalid_observed" t.sg_width
        | Blocked_source_rate -> raw_rate w "events.source_blocked" t.sg_width
        | Crash_burst ->
            float_of_int (Timeline.count w "probe.crash" + Timeline.count w "fault.crash")
            /. t.sg_width
        | Rekey_staleness -> staleness
      in
      let p = st.st_params in
      let reference = if p.adaptive_ref then (if st.st_have then st.st_ewma else raw) else 0.0 in
      let s = Float.max 0.0 (st.st_cusum +. raw -. reference -. p.cusum_slack) in
      let alarm = s > p.cusum_threshold in
      st.st_cusum <- (if alarm then 0.0 else s);
      st.st_ewma <-
        (if st.st_have then (p.ewma_alpha *. raw) +. ((1.0 -. p.ewma_alpha) *. st.st_ewma)
         else raw);
      st.st_have <- true;
      let point =
        {
          window = w.Timeline.index;
          t_lo = w.Timeline.t_lo;
          t_hi = w.Timeline.t_hi;
          raw;
          ewma = st.st_ewma;
          cusum = s;
          alarm;
        }
      in
      st.st_points_rev <- point :: st.st_points_rev;
      if alarm then begin
        t.alarms_rev <- (kind, point) :: t.alarms_rev;
        Option.iter
          (fun emit ->
            emit ~time:w.Timeline.t_hi
              (Event.Note
                 {
                   label = "signal.alarm";
                   detail =
                     Printf.sprintf "%s: raw=%.6g ewma=%.6g cusum=%.6g > %.6g in window %d"
                       (kind_name kind) raw st.st_ewma s p.cusum_threshold w.Timeline.index;
                 }))
          t.emit
      end)
    t.states

let create ?emit timeline =
  let t = make ?emit timeline in
  Timeline.on_window timeline (process_window t);
  t

let of_timeline ?emit timeline =
  let t = make ?emit timeline in
  List.iter (process_window t) (Timeline.windows timeline);
  t

let state t kind = List.assoc kind t.states
let series t kind = List.rev (state t kind).st_points_rev
let latest t kind = match (state t kind).st_points_rev with [] -> None | p :: _ -> Some p
let alarms t = List.rev t.alarms_rev

(* ---- rendering ---- *)

let fault_summary (w : Timeline.window) =
  let faults =
    List.filter_map
      (fun (key, n) ->
        if String.length key > 6 && String.sub key 0 6 = "fault." then
          Some (Printf.sprintf "%s:%d" (String.sub key 6 (String.length key - 6)) n)
        else None)
      w.Timeline.counts
  in
  String.concat " " faults

let table ?timeline t =
  let with_faults = timeline <> None in
  let headers =
    [ "win"; "vt" ] @ List.map short_name all @ [ "alarm" ]
    @ (if with_faults then [ "faults" ] else [])
  in
  let table = Table.create ~headers in
  Table.set_align table 1 Table.Left;
  Table.set_align table (List.length headers - 1) Table.Left;
  let by_index =
    match timeline with
    | None -> fun _ -> None
    | Some tl ->
        let wins = Timeline.windows tl in
        fun i -> List.find_opt (fun (w : Timeline.window) -> w.Timeline.index = i) wins
  in
  (* the four series are parallel folds over the same window list *)
  let cols = List.map (fun k -> (k, Array.of_list (series t k))) all in
  let n = match cols with (_, c) :: _ -> Array.length c | [] -> 0 in
  for row_i = 0 to n - 1 do
    let point k = (List.assoc k cols).(row_i) in
    let p0 = point Invalid_probe_rate in
    let alarming =
      List.filter_map (fun k -> if (point k).alarm then Some (short_name k) else None) all
    in
    let cells =
      [ string_of_int p0.window; Printf.sprintf "[%g, %g)" p0.t_lo p0.t_hi ]
      @ List.map (fun k -> Printf.sprintf "%.4g" (point k).raw) all
      @ [ (if alarming = [] then "-" else String.concat "," alarming) ]
      @ (if with_faults then
           [ (match by_index p0.window with
             | Some w -> ( match fault_summary w with "" -> "-" | s -> s)
             | None -> "-") ]
         else [])
    in
    Table.add_row table cells
  done;
  table

let alarm_table t =
  let table =
    Table.create ~headers:[ "signal"; "win"; "vt"; "raw"; "ewma"; "cusum" ]
  in
  Table.set_align table 0 Table.Left;
  Table.set_align table 2 Table.Left;
  List.iter
    (fun (kind, p) ->
      Table.add_row table
        [
          kind_name kind;
          string_of_int p.window;
          Printf.sprintf "[%g, %g)" p.t_lo p.t_hi;
          Printf.sprintf "%.4g" p.raw;
          Printf.sprintf "%.4g" p.ewma;
          Printf.sprintf "%.4g" p.cusum;
        ])
    (alarms t);
  table
