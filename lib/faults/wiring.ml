module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Address = Fortress_net.Address
module Deployment = Fortress_core.Deployment
module Smr_deployment = Fortress_core.Smr_deployment
module Message = Fortress_core.Message
module Obfuscation = Fortress_core.Obfuscation
module Smr = Fortress_replication.Smr
module Event = Fortress_obs.Event

(* [address] raises [Invalid_argument] for a node the deployment does not
   have; [Plan.validate] keeps the nameserver out of partitions, so it is
   never asked about it. *)
type 'msg deployment = {
  engine : Engine.t;
  net : 'msg Network.t;
  corrupter : 'msg -> 'msg option;
  address : Plan.target -> Address.t;
  crash : Plan.target -> unit;
  restart : Plan.target -> unit;
  set_stalled : bool -> unit;
}

let absent target =
  invalid_arg (Printf.sprintf "Wiring: no %s in this deployment" (Plan.target_to_string target))

(* The daemon is looked up when the action fires, so a plan installed
   before the deployment's daemon starts still wedges it; a deployment
   with no daemon has nothing to wedge. *)
let stall daemon v = Option.iter (fun o -> Obfuscation.set_stalled o v) daemon

let fortress d =
  let node addresses i target =
    if i < 0 || i >= Array.length addresses then absent target;
    addresses.(i)
  in
  {
    engine = Deployment.engine d;
    net = Deployment.network d;
    (* Corrupting a client request mangles the command in flight; the proxy
       still parses the frame and forwards garbage (our proxies log, they
       do not deep-inspect). Protocol-internal messages and signed replies
       fail their integrity checks instead, which the network models as a
       drop. *)
    corrupter =
      (function
      | Message.Client_request { id; cmd; client } ->
          Some (Message.Client_request { id; cmd = "corrupt:" ^ cmd; client })
      | Message.Server _ | Message.Client_reply _ -> None);
    address =
      (function
      | Plan.Server i as target -> node (Deployment.server_addresses d) i target
      | Plan.Proxy i as target -> node (Deployment.proxy_addresses d) i target
      | (Plan.Replica _ | Plan.Nameserver) as target -> absent target);
    crash =
      (function
      | Plan.Server i -> Deployment.crash_server d i
      | Plan.Proxy i -> Deployment.crash_proxy d i
      | Plan.Nameserver -> Deployment.crash_nameserver d
      | Plan.Replica _ as target -> absent target);
    restart =
      (function
      | Plan.Server i -> Deployment.restart_server d i
      | Plan.Proxy i -> Deployment.restart_proxy d i
      | Plan.Nameserver -> Deployment.restart_nameserver d
      | Plan.Replica _ as target -> absent target);
    set_stalled = (fun v -> stall (Deployment.obfuscation d) v);
  }

(* S0 has one tier of n replicas, so every plan target folds onto it:
   servers map index-for-index, proxies (the plan's front tier) fold onto
   the tail end — [Proxy i -> Replica (n-1-i)] — so a partition plan that
   separates the front from the back on S2 isolates a minority on S0.
   The nameserver has no S0 counterpart; crashing or restarting it is
   skipped with a visible event rather than rejected, so one plan drives
   both stacks. *)
let smr d =
  let engine = Smr_deployment.engine d in
  let addresses = Smr_deployment.addresses d in
  let n = Array.length addresses in
  let replica target =
    let i =
      match target with
      | Plan.Server i | Plan.Replica i -> i
      | Plan.Proxy i -> n - 1 - i
      | Plan.Nameserver -> -1
    in
    if i < 0 || i >= n then absent target;
    i
  in
  let skip_nameserver what =
    Engine.emit engine
      (Event.Fault
         {
           action = "skip";
           target = "nameserver";
           detail = Printf.sprintf "S0 has no nameserver; %s skipped" what;
         })
  in
  {
    engine;
    net = Smr_deployment.network d;
    (* Corrupting a client request mangles the command in flight; the
       replica still parses the frame and executes garbage. Every
       protocol-internal message is signed or checksummed, so corruption
       there fails the integrity check — the network models that as a
       drop. *)
    corrupter =
      (function
      | Smr.Request { id; cmd; reply_to } ->
          Some (Smr.Request { id; cmd = "corrupt:" ^ cmd; reply_to })
      | _ -> None);
    address = (fun target -> addresses.(replica target));
    crash =
      (function
      | Plan.Nameserver -> skip_nameserver "crash"
      | target -> Smr_deployment.crash_replica d (replica target));
    restart =
      (function
      | Plan.Nameserver -> skip_nameserver "restart"
      | target -> Smr_deployment.restart_replica d (replica target));
    set_stalled = (fun v -> stall (Smr_deployment.obfuscation d) v);
  }

type 'msg handle = {
  stats : Injector.stats;
  mutable active : bool;
  deployment : 'msg deployment;
}

let apply_action h action =
  let d = h.deployment in
  h.stats.Injector.timeline_fired <- h.stats.Injector.timeline_fired + 1;
  match action with
  | Plan.Crash target -> d.crash target
  | Plan.Restart target -> d.restart target
  | Plan.Partition (a, b) ->
      Network.partition d.net (d.address a) (d.address b);
      Engine.emit d.engine
        (Event.Fault
           {
             action = "partition";
             target =
               Printf.sprintf "%s|%s" (Plan.target_to_string a) (Plan.target_to_string b);
             detail = "";
           })
  | Plan.Heal_all ->
      Network.heal_all d.net;
      Engine.emit d.engine (Event.Fault { action = "heal"; target = "network"; detail = "all" })
  | Plan.Stall_obfuscation ->
      d.set_stalled true;
      Engine.emit d.engine
        (Event.Fault { action = "stall"; target = "obfuscation"; detail = "daemon wedged" })
  | Plan.Resume_obfuscation ->
      d.set_stalled false;
      Engine.emit d.engine
        (Event.Fault { action = "resume"; target = "obfuscation"; detail = "" })
  | Plan.Slowdown f ->
      Engine.set_delay_interceptor d.engine
        (if f = 1.0 then None else Some (fun delay -> delay *. f));
      Engine.emit d.engine
        (Event.Fault
           { action = "slowdown"; target = "engine"; detail = Printf.sprintf "x%g" f })

let schedule_entry h (e : Plan.entry) =
  let engine = h.deployment.engine in
  let rec arm time =
    ignore
      (Engine.schedule_at engine ~time (fun () ->
           if h.active then begin
             apply_action h e.Plan.action;
             match e.Plan.every with
             | Some period -> arm (Engine.now engine +. period)
             | None -> ()
           end))
  in
  if e.Plan.at >= Engine.now engine then arm e.Plan.at
  else invalid_arg "Wiring: timeline entry scheduled in the past"

let install plan d ~seed =
  Plan.validate plan;
  (* fail before touching anything if the plan names absent nodes *)
  let check = function Plan.Nameserver -> () | target -> ignore (d.address target) in
  List.iter
    (fun (e : Plan.entry) ->
      match e.Plan.action with
      | Plan.Crash t | Plan.Restart t -> check t
      | Plan.Partition (a, b) ->
          check a;
          check b
      | Plan.Heal_all | Plan.Stall_obfuscation | Plan.Resume_obfuscation | Plan.Slowdown _ -> ())
    plan.Plan.timeline;
  let stats = Injector.fresh_stats () in
  let h = { stats; active = true; deployment = d } in
  let prng = Injector.derive_prng ~seed in
  Injector.install_link ~engine:d.engine ~net:d.net ~prng ~stats plan.Plan.link;
  if plan.Plan.link.Plan.corrupt > 0.0 then Network.set_corrupter d.net (Some d.corrupter);
  List.iter (schedule_entry h) plan.Plan.timeline;
  Engine.emit d.engine
    (Event.Fault
       {
         action = "plan_installed";
         target = plan.Plan.name;
         detail = Printf.sprintf "%d timeline entries" (List.length plan.Plan.timeline);
       });
  h

let stats h = h.stats

let uninstall h =
  if h.active then begin
    h.active <- false;
    let d = h.deployment in
    Network.set_interceptor d.net None;
    Network.set_corrupter d.net None;
    Engine.set_delay_interceptor d.engine None;
    d.set_stalled false;
    Engine.emit d.engine
      (Event.Fault { action = "plan_uninstalled"; target = "deployment"; detail = "" })
  end
