(* The counter-key scheme of the event plane, kept once. Slots are the
   contract between [keys], [slot], [kind_slot] and [outcome_slot]. *)

let keys =
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

(* -1: a Note's label is open-ended *)
let slot = function
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

let iter ~fixed ~note ev =
  (match slot ev with -1 -> note ("events." ^ Event.label ev) | i -> fixed i);
  match ev with
  | Event.Probe { kind; outcome; _ } ->
      fixed (kind_slot kind);
      fixed (outcome_slot outcome)
  | _ -> ()

let index = Hashtbl.create 32
let () = Array.iteri (fun i key -> Hashtbl.replace index key i) keys

let bump table key =
  match Hashtbl.find table key with
  | r -> incr r
  | exception Not_found -> Hashtbl.replace table key (ref 1)

type t = {
  slots : int array;
  table : (string, int ref) Hashtbl.t;
  count : Event.t -> unit;  (* [iter] over these two, built once *)
  mutable faults : (string * int ref) list;  (* action -> its "fault.<action>" cell *)
}

let create () =
  let slots = Array.make (Array.length keys) 0 and table = Hashtbl.create 8 in
  let count = iter ~fixed:(fun i -> slots.(i) <- slots.(i) + 1) ~note:(bump table) in
  { slots; table; count; faults = [] }

(* a cell found by action spares a fault building and hashing its key *)
let add t ev =
  t.count ev;
  match ev with
  | Event.Fault { action; _ } -> (
      try incr (List.assoc action t.faults)
      with Not_found ->
        let r = ref 1 in
        Hashtbl.replace t.table ("fault." ^ action) r;
        t.faults <- (action, r) :: t.faults)
  | _ -> ()

let fixed t key = match Hashtbl.find_opt index key with Some i -> t.slots.(i) | None -> 0

let find t key =
  fixed t key + match Hashtbl.find_opt t.table key with Some r -> !r | None -> 0

let to_list t =
  let from_table = Hashtbl.fold (fun key _ l -> (key, find t key) :: l) t.table [] in
  let slot_only = ref [] in
  Array.iteri
    (fun i key ->
      if t.slots.(i) > 0 && not (Hashtbl.mem t.table key) then
        slot_only := (key, t.slots.(i)) :: !slot_only)
    keys;
  List.sort (fun (a, _) (b, _) -> String.compare a b) (List.rev_append !slot_only from_table)

let with_prefix prefix t =
  let n = String.length prefix in
  List.filter_map
    (fun (key, c) ->
      if String.starts_with ~prefix key then Some (String.sub key n (String.length key - n), c)
      else None)
    (to_list t)
