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

(* a top-level walk, so an emit builds no closure over time and ev *)
let rec notify time ev = function
  | [] -> ()
  | (_, (sub : subscriber)) :: rest ->
      sub ~time ev;
      notify time ev rest

let emit t ~time ev =
  t.emitted <- t.emitted + 1;
  notify time ev t.subs

let emitted t = t.emitted
let forward downstream ~time ev = emit downstream ~time ev

(* ---- stock subscribers ---- *)

let counting metrics =
  (* a counter registers at its first event, so the registry lists only
     keys seen; fixed keys then cost an array read per event *)
  let handles = Array.map (fun key -> lazy (Metrics.counter metrics key)) Counts.keys in
  let fixed i = Metrics.incr (Lazy.force handles.(i)) in
  let notes = Hashtbl.create 8 in
  let note key =
    match Hashtbl.find_opt notes key with
    | Some c -> Metrics.incr c
    | None ->
        let c = Metrics.counter metrics key in
        Hashtbl.replace notes key c;
        Metrics.incr c
  in
  fun ~time:_ ev -> Counts.iter ~fixed ~note ev

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
  let buf = Buffer.create 128 in
  Event.write buf ~time ev;
  Buffer.contents buf

(* a subscriber's own writer: one reused buffer, holding the last line *)
let renderer () =
  let buf = Buffer.create 256 and write = Event.writer () in
  fun ~time ev -> Buffer.clear buf; write buf ~time ev; buf

let file path =
  let oc = open_out path in
  let render = renderer () in
  let closed = ref false in
  let sub ~time ev =
    if not !closed then begin
      let buf = render ~time ev in
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf
    end
  in
  let close () =
    if not !closed then begin
      closed := true;
      flush oc;
      close_out oc
    end
  in
  (sub, close)

(* FNV-1a 64-bit, kept here (not in crypto) so determinism checks need no
   extra deps. The state lives in 8 bytes, read and written by the
   compiler's unboxed primitives, so neither the loop nor the state
   between two lines is a boxed int64. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let fnv_prime = 0x100000001b3L

let fnv_state () =
  let state = Bytes.create 8 in
  set64 state 0 0xcbf29ce484222325L;
  state

(* fold bytes[0, len) and a trailing '\n' into the state *)
let fnv_feed state bytes len =
  let h = ref (get64 state 0) in
  for i = 0 to len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get bytes i)))) fnv_prime
  done;
  set64 state 0 (Int64.mul (Int64.logxor !h 0x0AL) fnv_prime)

let fnv_hex state = Printf.sprintf "%016Lx" (get64 state 0)

let digesting () =
  (* FNV-1a over the JSONL rendering of every event, newline included, so
     the digest equals a hash of the equivalent trace file; the loop reads
     the line from one reused byte array *)
  let state = fnv_state () and render = renderer () and bytes = ref (Bytes.create 256) in
  let sub ~time ev =
    let buf = render ~time ev in
    let len = Buffer.length buf in
    if len > Bytes.length !bytes then bytes := Bytes.create (2 * len);
    Buffer.blit buf 0 !bytes 0 len;
    fnv_feed state !bytes len
  in
  (sub, fun () -> fnv_hex state)

let digest_lines lines =
  let state = fnv_state () in
  List.iter (fun s -> fnv_feed state (Bytes.unsafe_of_string s) (String.length s)) lines;
  fnv_hex state

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
  let ( let* ) = Result.bind in
  let* json = Json.parse s in
  let* ev = Event.of_json json in
  Ok (Option.value ~default:0.0 (Option.bind (Json.member "t" json) Json.num), ev)

let read_file path (sub : subscriber) =
  In_channel.with_open_text path (fun ic ->
      let rec go malformed =
        match In_channel.input_line ic with
        | None -> malformed
        | Some l when String.trim l = "" -> go malformed
        | Some l -> (
            match parse_line l with
            | Ok (time, ev) ->
                sub ~time ev;
                go malformed
            | Error _ -> go (malformed + 1))
      in
      go 0)
