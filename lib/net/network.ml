module Engine = Fortress_sim.Engine
module Event = Fortress_obs.Event
module Causal = Fortress_obs.Causal
module Prof = Fortress_prof.Profiler

let send_phase = Prof.register "net.send"
let deliver_phase = Prof.register "net.deliver"

type 'msg node = {
  name : string;
  mutable handler : src:Address.t -> 'msg -> unit;
  mutable up : bool;
  mutable epoch : int;  (** bumped on crash so in-flight deliveries are voided *)
}

type delivery = { extra_delay : float; corrupt : bool }

type verdict =
  | Pass
  | Drop of string
  | Deliver of delivery list

type 'msg interceptor = src:Address.t -> dst:Address.t -> 'msg -> verdict

type 'msg t = {
  engine : Engine.t;
  default_latency : Latency.t;
  mutable nodes : 'msg node array;
      (** indexed by address id: [register] hands out 0, 1, ...; slots
          [next_addr] and up are unused *)
  link_latency : (int * int, Latency.t) Hashtbl.t;
  partitions : (int * int, unit) Hashtbl.t;
  mutable next_addr : int;
  mutable down_nodes : int;  (** registered nodes currently down *)
  mutable delivered : int;
  mutable dropped : int;
  mutable interceptor : 'msg interceptor option;
  mutable corrupter : ('msg -> 'msg option) option;
}

let create ?(latency = Latency.default) engine =
  {
    engine;
    default_latency = latency;
    nodes = [||];
    link_latency = Hashtbl.create 16;
    partitions = Hashtbl.create 16;
    next_addr = 0;
    down_nodes = 0;
    delivered = 0;
    dropped = 0;
    interceptor = None;
    corrupter = None;
  }

let set_interceptor t i = t.interceptor <- i
let set_corrupter t c = t.corrupter <- c

let engine t = t.engine

let register t ~name ~handler =
  let id = t.next_addr in
  let node = { name; handler; up = true; epoch = 0 } in
  if id = Array.length t.nodes then begin
    let nodes = Array.make (Int.max 8 (2 * id)) node in
    Array.blit t.nodes 0 nodes 0 id;
    t.nodes <- nodes
  end;
  t.nodes.(id) <- node;
  t.next_addr <- id + 1;
  Address.make id

let find t addr =
  let id = Address.id addr in
  if id >= 0 && id < t.next_addr then Array.unsafe_get t.nodes id
  else invalid_arg (Printf.sprintf "Network: unknown address %s" (Address.to_string addr))

let set_handler t addr handler = (find t addr).handler <- handler
let name t addr = (find t addr).name

let nodes t = List.init t.next_addr Address.make

let pair_key a b =
  let ia = Address.id a and ib = Address.id b in
  if ia <= ib then (ia, ib) else (ib, ia)

(* both tables are usually empty: a send then builds no key and hashes
   nothing *)
let partitioned t a b =
  Hashtbl.length t.partitions > 0 && Hashtbl.mem t.partitions (pair_key a b)

let latency_for t a b =
  if Hashtbl.length t.link_latency = 0 then t.default_latency
  else
    match Hashtbl.find_opt t.link_latency (pair_key a b) with
    | Some l -> l
    | None -> t.default_latency

let drop t ~src ~dst ~reason =
  t.dropped <- t.dropped + 1;
  Engine.emit t.engine
    (Event.Msg_dropped { src = Address.id src; dst = Address.id dst; reason })

(* One physical transmission attempt: sample latency, add [extra], deliver
   unless the destination went down (or crashed and came back) in flight.
   With a causal context attached, the in-flight message is stamped with a
   [net.send] span (child of whatever span is ambient at the send site) and
   delivery opens a [net.deliver] child of it, made ambient around the
   handler so nested sends chain — that parent edge is what the trace
   export renders as a cross-node flow arrow. *)
let transmit t ~src ~dst dst_node ~extra msg =
  match Latency.sample (latency_for t src dst) (Engine.prng t.engine) with
  | None -> drop t ~src ~dst ~reason:"loss"
  | Some delay ->
      let epoch_at_send = dst_node.epoch in
      let send_span =
        match Engine.causal t.engine with
        | None -> None
        | Some c ->
            let sp =
              Causal.span_of c
                ~attrs:[ ("node", (find t src).name); ("dst", dst_node.name) ]
                "net.send"
            in
            Causal.finish c sp;
            Some (c, sp)
      in
      ignore
        (Engine.schedule t.engine ~delay:(delay +. extra) (fun () ->
             if dst_node.up && dst_node.epoch = epoch_at_send then begin
               t.delivered <- t.delivered + 1;
               Engine.emit t.engine
                 (Event.Msg_delivered { src = Address.id src; dst = Address.id dst });
               match send_span with
               | None ->
                   (* no causal context: keep the pre-causal delivery path
                      allocation-free (the closure for [Prof.record] only
                      exists when the profiler is on, as before) *)
                   if Prof.is_enabled () then
                     Prof.record deliver_phase (fun () -> dst_node.handler ~src msg)
                   else dst_node.handler ~src msg
               | Some (c, sp) ->
                   let dsp =
                     Causal.span_of c ~parent:sp ~attrs:[ ("node", dst_node.name) ] "net.deliver"
                   in
                   Causal.with_ambient c dsp (fun () ->
                       if Prof.is_enabled () then
                         Prof.record deliver_phase (fun () -> dst_node.handler ~src msg)
                       else dst_node.handler ~src msg);
                   Causal.finish c dsp
             end
             else drop t ~src ~dst ~reason:"down"))

let send_unprofiled t ~src ~dst msg =
  let dst_node = find t dst in
  (* sender must exist too: catches stale addresses in protocols *)
  let _ = find t src in
  if partitioned t src dst then drop t ~src ~dst ~reason:"partition"
  else
    match t.interceptor with
    | None -> transmit t ~src ~dst dst_node ~extra:0.0 msg
    | Some intercept -> (
        match intercept ~src ~dst msg with
        | Pass -> transmit t ~src ~dst dst_node ~extra:0.0 msg
        | Drop reason -> drop t ~src ~dst ~reason
        | Deliver deliveries ->
            List.iter
              (fun { extra_delay; corrupt } ->
                if not corrupt then transmit t ~src ~dst dst_node ~extra:extra_delay msg
                else
                  match Option.bind t.corrupter (fun f -> f msg) with
                  | Some msg' -> transmit t ~src ~dst dst_node ~extra:extra_delay msg'
                  | None ->
                      (* no corrupter (or message kind not corruptible):
                         the mangled bytes fail framing and are lost *)
                      drop t ~src ~dst ~reason:"fault:corrupt")
              deliveries)

let send t ~src ~dst msg =
  if Prof.is_enabled () then
    Prof.record send_phase (fun () -> send_unprofiled t ~src ~dst msg)
  else send_unprofiled t ~src ~dst msg

let multicast t ~src ~dsts msg = List.iter (fun dst -> send t ~src ~dst msg) dsts

let set_down t addr =
  let node = find t addr in
  if node.up then begin
    node.up <- false;
    t.down_nodes <- t.down_nodes + 1
  end;
  node.epoch <- node.epoch + 1

let set_up t addr =
  let node = find t addr in
  if not node.up then begin
    node.up <- true;
    t.down_nodes <- t.down_nodes - 1
  end

let is_up t addr = (find t addr).up

(* O(1) precheck for the symptom surface: with every node up and no
   partition installed, no reachability scan can come back positive. *)
let quiescent t = t.down_nodes = 0 && Hashtbl.length t.partitions = 0

let partition t a b = Hashtbl.replace t.partitions (pair_key a b) ()
let heal t a b = Hashtbl.remove t.partitions (pair_key a b)
let heal_all t = Hashtbl.reset t.partitions
let set_link_latency t a b l = Hashtbl.replace t.link_latency (pair_key a b) l
let delivered t = t.delivered
let dropped t = t.dropped
