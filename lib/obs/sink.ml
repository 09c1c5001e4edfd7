type subscriber = time:float -> Event.t -> unit
type handle = int

type t = {
  mutable subs : (handle * subscriber) list;  (** attachment order *)
  mutable next_handle : int;
  mutable emitted : int;
}

let create () = { subs = []; next_handle = 0; emitted = 0 }

let attach t sub =
  t.next_handle <- t.next_handle + 1;
  t.subs <- t.subs @ [ (t.next_handle, sub) ];
  t.next_handle

let detach t handle = t.subs <- List.filter (fun (h, _) -> h <> handle) t.subs
let subscriber_count t = List.length t.subs

let emit t ~time ev =
  t.emitted <- t.emitted + 1;
  List.iter (fun (_, sub) -> sub ~time ev) t.subs

let emitted t = t.emitted
let forward downstream ~time ev = emit downstream ~time ev

(* ---- stock subscribers ---- *)

let counting metrics =
  (* cache handles so the steady state is one Hashtbl lookup per event *)
  let by_label = Hashtbl.create 16 in
  let counter_for name =
    match Hashtbl.find_opt by_label name with
    | Some c -> c
    | None ->
        let c = Metrics.counter metrics name in
        Hashtbl.replace by_label name c;
        c
  in
  fun ~time:_ ev ->
    Metrics.incr (counter_for ("events." ^ Event.label ev));
    match ev with
    | Event.Probe { kind; outcome; _ } ->
        Metrics.incr (counter_for ("probe." ^ Event.kind_to_string kind));
        Metrics.incr (counter_for ("probe." ^ Event.outcome_to_string outcome))
    | _ -> ()

let memory ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Sink.memory: capacity must be positive";
  let ring = Array.make capacity None in
  let next = ref 0 in
  let stored = ref 0 in
  let sub ~time ev =
    ring.(!next) <- Some (time, ev);
    next := (!next + 1) mod capacity;
    incr stored
  in
  let read () =
    let retained = min !stored capacity in
    let start = if !stored <= capacity then 0 else !next in
    List.init retained (fun i ->
        match ring.((start + i) mod capacity) with
        | Some e -> e
        | None -> assert false)
  in
  (sub, read)

let tail ~lines =
  if lines <= 0 then invalid_arg "Sink.tail: lines must be positive";
  let keep, read = memory ~capacity:lines () in
  let sub ~time ev = match Event.verbosity ev with `Info -> keep ~time ev | `Debug -> () in
  let render () =
    let buf = Buffer.create 1024 in
    List.iter
      (fun (time, ev) ->
        Printf.bprintf buf "[%10.4f] %-18s %s\n" time (Event.label ev) (Event.detail ev))
      (read ());
    Buffer.contents buf
  in
  (sub, render)

let line ~time ev =
  match Event.to_json ev with
  | Json.Obj fields -> Json.to_string (Json.Obj (("t", Json.Num time) :: fields))
  | other -> Json.to_string other

let jsonl write ~time ev = write (line ~time ev)

let jsonl_channel oc ~time ev =
  output_string oc (line ~time ev);
  output_char oc '\n'

let file path =
  let oc = open_out path in
  let closed = ref false in
  let sub ~time ev = if not !closed then jsonl_channel oc ~time ev in
  let close () =
    if not !closed then begin
      closed := true;
      flush oc;
      close_out oc
    end
  in
  (sub, close)

(* FNV-1a 64-bit, kept here (not in crypto) so determinism checks need no
   extra deps. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_feed h s =
  let acc = ref h in
  String.iter
    (fun c -> acc := Int64.mul (Int64.logxor !acc (Int64.of_int (Char.code c))) fnv_prime)
    s;
  Int64.mul (Int64.logxor !acc 0x0AL) fnv_prime (* trailing '\n' *)

let fnv_hex h = Printf.sprintf "%016Lx" h

let digesting () =
  (* FNV-1a over the JSONL rendering of every event, newline included, so
     the digest equals a hash of the equivalent trace file. *)
  let h = ref fnv_offset in
  let sub ~time ev = h := fnv_feed !h (line ~time ev) in
  (sub, fun () -> fnv_hex !h)

let digest_lines lines = fnv_hex (List.fold_left fnv_feed fnv_offset lines)

let buffered ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Sink.buffered: capacity must be positive";
  (* growable arena, not a cons list: parallel joins replay thousands of
     these per campaign, and list-cons + List.rev churned two cells per
     event. The backing array is only allocated on the first event, so an
     attached-but-silent recorder costs one ref. *)
  let buf = ref [||] in
  let count = ref 0 in
  let sub ~time ev =
    let cap = Array.length !buf in
    if !count = cap then begin
      let grown = Array.make (if cap = 0 then capacity else 2 * cap) None in
      Array.blit !buf 0 grown 0 cap;
      buf := grown
    end;
    !buf.(!count) <- Some (time, ev);
    incr count
  in
  let replay downstream =
    for i = 0 to !count - 1 do
      match !buf.(i) with
      | Some (time, ev) -> emit downstream ~time ev
      | None -> assert false
    done
  in
  (sub, replay)

let parse_line s =
  match Json.parse s with
  | Error e -> Error e
  | Ok json -> (
      match Event.of_json json with
      | Error e -> Error e
      | Ok ev ->
          let time =
            Option.value ~default:0.0 (Option.bind (Json.member "t" json) Json.num)
          in
          Ok (time, ev))
