module Event = Fortress_obs.Event
module Json = Fortress_obs.Json

(* Chrome trace-event ("Trace Event Format") export, the JSON-array flavour
   accepted by chrome://tracing and by Perfetto's legacy-JSON importer.

   Two processes keep the two clocks apart:
     pid 1 — the simulated world: Span_finished events on the virtual
             clock, one thread lane per node (span attr "node", falling
             back to the name prefix before the first '.');
     pid 2 — the simulator itself: profiler wall-clock samples, one lane
             per top-level phase scope.
   Timestamps are microseconds, so virtual time units are scaled by
   [scale] (default 1e6: one virtual time unit renders as one second). *)

let default_scale = 1_000_000.0

let name_prefix name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let span_lane ~attrs ~name =
  match List.assoc_opt "node" attrs with
  | Some node -> node
  | None -> name_prefix name

(* trace viewers sort thread lanes by tid; intern lanes in first-seen
   order so the layout is deterministic for a given event stream *)
type lanes = { tbl : (string, int) Hashtbl.t; mutable rev : (string * int) list }

let lanes_create () = { tbl = Hashtbl.create 16; rev = [] }

let lane_id lanes name =
  match Hashtbl.find_opt lanes.tbl name with
  | Some tid -> tid
  | None ->
      let tid = Hashtbl.length lanes.tbl + 1 in
      Hashtbl.replace lanes.tbl name tid;
      lanes.rev <- (name, tid) :: lanes.rev;
      tid

let lanes_sorted lanes = List.rev lanes.rev

let str k v = (k, Json.Str v)
let num k v = (k, Json.Num v)

let metadata ~pid ?tid ~name ~value () =
  Json.Obj
    ([ str "name" name; str "ph" "M"; num "pid" (float_of_int pid) ]
    @ (match tid with Some t -> [ num "tid" (float_of_int t) ] | None -> [])
    @ [ ("args", Json.Obj [ str "name" value ]) ])

let complete ~pid ~tid ~name ~ts ~dur ~args =
  Json.Obj
    [
      str "name" name;
      str "ph" "X";
      num "pid" (float_of_int pid);
      num "tid" (float_of_int tid);
      num "ts" ts;
      num "dur" dur;
      ("args", Json.Obj args);
    ]

let instant ~pid ~tid ~name ~ts ~args =
  Json.Obj
    [
      str "name" name;
      str "ph" "i";
      str "s" "t";
      num "pid" (float_of_int pid);
      num "tid" (float_of_int tid);
      num "ts" ts;
      ("args", Json.Obj args);
    ]

(* Flow events bind a send lane to a deliver lane with an arrow: a "s"
   (start) at the producer and a "f" (finish, bp:"e") at the consumer,
   paired by id. Binding id is the deliver span's id, which the causal
   layer keeps unique across a pooled trace. *)
let flow ~phase ~tid ~ts ~id =
  Json.Obj
    ([ str "name" "net.flow"; str "cat" "net"; str "ph" phase ]
    @ (if phase = "f" then [ str "bp" "e" ] else [])
    @ [ num "id" id; num "pid" 1.0; num "tid" (float_of_int tid); num "ts" ts ])

let sim_pid = 1
let prof_pid = 2

let keeps = function
  | Event.Span_finished _ -> true
  | ev -> Event.verbosity ev = `Info

let make ?(scale = default_scale) ?(samples = []) events =
  let sim_lanes = lanes_create () in
  let prof_lanes = lanes_create () in
  (* pre-index finished spans so a net.deliver can find its net.send parent
     regardless of emission order *)
  let span_index = Hashtbl.create 64 in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Event.Span_finished { id; name; start_time; attrs; _ } ->
          Hashtbl.replace span_index id (name, span_lane ~attrs ~name, start_time)
      | _ -> ())
    events;
  let rows = ref [] in
  let push row = rows := row :: !rows in
  List.iter
    (fun (time, ev) ->
      match ev with
      | Event.Span_finished { name; start_time; duration; attrs; id; parent } ->
          let tid = lane_id sim_lanes (span_lane ~attrs ~name) in
          let args =
            [ num "id" (float_of_int id) ]
            @ (match parent with
              | Some p -> [ num "parent" (float_of_int p) ]
              | None -> [])
            @ List.map (fun (k, v) -> str k v) attrs
          in
          push
            (complete ~pid:sim_pid ~tid ~name ~ts:(start_time *. scale)
               ~dur:(duration *. scale) ~args);
          (match (name, parent) with
          | "net.deliver", Some p -> (
              match Hashtbl.find_opt span_index p with
              | Some ("net.send", send_lane, send_start) ->
                  let fid = float_of_int id in
                  push
                    (flow ~phase:"s" ~tid:(lane_id sim_lanes send_lane)
                       ~ts:(send_start *. scale) ~id:fid);
                  push (flow ~phase:"f" ~tid ~ts:(start_time *. scale) ~id:fid)
              | _ -> ())
          | _ -> ())
      | ev when Event.verbosity ev = `Info ->
          (* milestones (compromises, failovers, faults, notes) render as
             instants on an "events" lane so they line up against spans *)
          let tid = lane_id sim_lanes "events" in
          push
            (instant ~pid:sim_pid ~tid ~name:(Event.label ev) ~ts:(time *. scale)
               ~args:[ str "detail" (Event.detail ev) ])
      | _ -> ())
    events;
  List.iter
    (fun (s : Profiler.sample) ->
      let tid = lane_id prof_lanes (name_prefix s.Profiler.s_phase) in
      push
        (complete ~pid:prof_pid ~tid ~name:s.Profiler.s_phase
           ~ts:(s.Profiler.s_start *. 1e6) ~dur:(s.Profiler.s_dur *. 1e6) ~args:[]))
    samples;
  let meta =
    metadata ~pid:sim_pid ~name:"process_name" ~value:"simulation (virtual time)" ()
    :: metadata ~pid:prof_pid ~name:"process_name" ~value:"profiler (wall clock)" ()
    :: List.map
         (fun (lane, tid) ->
           metadata ~pid:sim_pid ~tid ~name:"thread_name" ~value:lane ())
         (lanes_sorted sim_lanes)
    @ List.map
        (fun (lane, tid) ->
          metadata ~pid:prof_pid ~tid ~name:"thread_name" ~value:lane ())
        (lanes_sorted prof_lanes)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.rev !rows));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.output oc json;
      output_char oc '\n')
