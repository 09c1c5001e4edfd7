open Fortress_replication
module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Latency = Fortress_net.Latency
module Address = Fortress_net.Address
module Sign = Fortress_crypto.Sign
module Prng = Fortress_util.Prng

(* ---- Dsm and services ---- *)

let test_kv_basic () =
  let inst = Dsm.Instance.create Services.kv in
  let run cmd = Dsm.Instance.apply inst ~entropy:0L cmd in
  Alcotest.(check string) "put" "ok" (run "put a 1");
  Alcotest.(check string) "get" "1" (run "get a");
  Alcotest.(check string) "missing" "err:not_found" (run "get b");
  Alcotest.(check string) "cas ok" "ok" (run "cas a 1 2");
  Alcotest.(check string) "cas mismatch" "err:mismatch" (run "cas a 1 3");
  Alcotest.(check string) "size" "1" (run "size");
  Alcotest.(check string) "del" "ok" (run "del a");
  Alcotest.(check string) "del missing" "err:not_found" (run "del a");
  Alcotest.(check string) "bad" "err:bad_command" (run "frobnicate")

let test_kv_snapshot_roundtrip () =
  let inst = Dsm.Instance.create Services.kv in
  ignore (Dsm.Instance.apply inst ~entropy:0L "put x 10");
  ignore (Dsm.Instance.apply inst ~entropy:0L "put y 20");
  let snap = Dsm.Instance.snapshot inst in
  let inst2 = Dsm.Instance.create Services.kv in
  Dsm.Instance.restore inst2 snap;
  Alcotest.(check string) "restored value" "10" (Dsm.Instance.apply inst2 ~entropy:0L "get x");
  Alcotest.(check string) "digests equal" (Dsm.Instance.digest inst) (Dsm.Instance.digest inst2)

let test_kv_snapshot_canonical () =
  let a = Dsm.Instance.create Services.kv and b = Dsm.Instance.create Services.kv in
  ignore (Dsm.Instance.apply a ~entropy:0L "put x 1");
  ignore (Dsm.Instance.apply a ~entropy:0L "put y 2");
  ignore (Dsm.Instance.apply b ~entropy:0L "put y 2");
  ignore (Dsm.Instance.apply b ~entropy:0L "put x 1");
  Alcotest.(check string) "insertion order irrelevant" (Dsm.Instance.snapshot a)
    (Dsm.Instance.snapshot b)

let test_counter () =
  let inst = Dsm.Instance.create Services.counter in
  let run cmd = Dsm.Instance.apply inst ~entropy:0L cmd in
  Alcotest.(check string) "incr" "1" (run "incr");
  Alcotest.(check string) "add" "11" (run "add 10");
  Alcotest.(check string) "decr" "10" (run "decr");
  Alcotest.(check string) "read" "10" (run "read")

let test_bank () =
  let inst = Dsm.Instance.create Services.bank in
  let run cmd = Dsm.Instance.apply inst ~entropy:0L cmd in
  Alcotest.(check string) "open" "ok" (run "open alice");
  Alcotest.(check string) "double open" "err:exists" (run "open alice");
  Alcotest.(check string) "deposit" "ok" (run "deposit alice 100");
  Alcotest.(check string) "withdraw" "ok" (run "withdraw alice 30");
  Alcotest.(check string) "overdraw" "err:insufficient" (run "withdraw alice 1000");
  Alcotest.(check string) "balance" "70" (run "balance alice");
  Alcotest.(check string) "open bob" "ok" (run "open bob");
  Alcotest.(check string) "transfer" "ok" (run "transfer alice bob 20");
  Alcotest.(check string) "alice" "50" (run "balance alice");
  Alcotest.(check string) "bob" "20" (run "balance bob");
  Alcotest.(check string) "no account" "err:no_account" (run "deposit carol 1")

let test_bank_conservation () =
  (* property: total balance is conserved by transfers *)
  let inst = Dsm.Instance.create Services.bank in
  let run cmd = ignore (Dsm.Instance.apply inst ~entropy:0L cmd) in
  run "open a";
  run "open b";
  run "open c";
  run "deposit a 300";
  let p = Prng.create ~seed:5 in
  let accounts = [| "a"; "b"; "c" |] in
  for _ = 1 to 200 do
    let x = Prng.choose p accounts and y = Prng.choose p accounts in
    run (Printf.sprintf "transfer %s %s %d" x y (Prng.int p ~bound:50))
  done;
  let total =
    List.fold_left
      (fun acc a -> acc + int_of_string (Dsm.Instance.apply inst ~entropy:0L ("balance " ^ a)))
      0 [ "a"; "b"; "c" ]
  in
  Alcotest.(check int) "conserved" 300 total

let test_lottery_entropy_dependence () =
  let a = Dsm.Instance.create Services.lottery in
  let b = Dsm.Instance.create Services.lottery in
  let ra = Dsm.Instance.apply a ~entropy:111L "draw 1000000" in
  let rb = Dsm.Instance.apply b ~entropy:222L "draw 1000000" in
  Alcotest.(check bool) "different entropy, different draw" false (ra = rb);
  let c = Dsm.Instance.create Services.lottery in
  let rc = Dsm.Instance.apply c ~entropy:111L "draw 1000000" in
  Alcotest.(check string) "same entropy, same draw" ra rc

let test_session_service () =
  let inst = Dsm.Instance.create Services.session in
  let token = Dsm.Instance.apply inst ~entropy:0xDEADBEEFL "login alice" in
  Alcotest.(check string) "token from entropy" "00000000deadbeef" token;
  Alcotest.(check string) "valid check" "valid"
    (Dsm.Instance.apply inst ~entropy:0L (Printf.sprintf "check alice %s" token));
  Alcotest.(check string) "wrong token" "err:invalid"
    (Dsm.Instance.apply inst ~entropy:0L "check alice 0000000000000000");
  Alcotest.(check string) "sessions" "1" (Dsm.Instance.apply inst ~entropy:0L "sessions");
  Alcotest.(check string) "logout" "ok" (Dsm.Instance.apply inst ~entropy:0L "logout alice");
  Alcotest.(check string) "no session" "err:no_session"
    (Dsm.Instance.apply inst ~entropy:0L "logout alice")

let test_service_registry () =
  Alcotest.(check int) "five services" 5 (List.length Services.all);
  Alcotest.(check bool) "find kv" true (Services.find "kv" <> None);
  Alcotest.(check bool) "find missing" true (Services.find "nope" = None)

let test_instance_reset () =
  let inst = Dsm.Instance.create Services.counter in
  ignore (Dsm.Instance.apply inst ~entropy:0L "incr");
  Dsm.Instance.reset inst;
  Alcotest.(check string) "back to init" "0" (Dsm.Instance.apply inst ~entropy:0L "read")

(* ---- PB cluster harness ---- *)

type pb_cluster = {
  pb_engine : Engine.t;
  pb_net : Pb.msg Network.t;
  pb_replicas : Pb.replica array;
  pb_addresses : Address.t array;
  pb_client : Address.t;
  pb_replies : Pb.reply list ref;
}

let make_pb_cluster ?(config = Pb.default_config) ?(service = Services.kv) ?(seed = 3) () =
  let engine = Engine.create ~prng:(Prng.create ~seed) () in
  let net = Network.create ~latency:(Latency.constant 0.5) engine in
  let replies = ref [] in
  let client =
    Network.register net ~name:"client" ~handler:(fun ~src:_ msg ->
        match msg with Pb.Reply r -> replies := r :: !replies | _ -> ())
  in
  let addresses =
    Array.init config.Pb.ns (fun i ->
        Network.register net ~name:(Printf.sprintf "s%d" i) ~handler:(fun ~src:_ _ -> ()))
  in
  let prng = Engine.prng engine in
  let replicas =
    Array.init config.Pb.ns (fun i ->
        let secret, _ = Sign.generate prng in
        Pb.create ~engine ~config ~index:i ~service ~secret ~self:addresses.(i) ~addresses
          (fun ~dst msg -> Network.send net ~src:addresses.(i) ~dst msg))
    |> fun reps ->
    Array.iteri
      (fun i addr -> Network.set_handler net addr (fun ~src msg -> Pb.handle reps.(i) ~src msg))
      addresses;
    reps
  in
  Array.iter Pb.start replicas;
  { pb_engine = engine; pb_net = net; pb_replicas = replicas; pb_addresses = addresses;
    pb_client = client; pb_replies = replies }

let pb_submit c ~id ~cmd =
  Array.iter
    (fun dst ->
      Network.send c.pb_net ~src:c.pb_client ~dst (Pb.Request { id; cmd; reply_to = c.pb_client }))
    c.pb_addresses

let replies_for c id = List.filter (fun r -> r.Pb.request_id = id) !(c.pb_replies)

let test_session_replicates_under_pb () =
  let c = make_pb_cluster ~service:Services.session () in
  pb_submit c ~id:"l1" ~cmd:"login alice";
  Engine.run ~until:50.0 c.pb_engine;
  let rs = replies_for c "l1" in
  Alcotest.(check int) "all replicas answer" 3 (List.length rs);
  (match rs with
  | r :: rest ->
      Alcotest.(check int) "token length" 16 (String.length r.Pb.response);
      List.iter
        (fun r' -> Alcotest.(check string) "identical token everywhere" r.Pb.response r'.Pb.response)
        rest;
      (* the session validates on every replica after failover *)
      Pb.stop c.pb_replicas.(0);
      Network.set_down c.pb_net c.pb_addresses.(0);
      pb_submit c ~id:"c1" ~cmd:(Printf.sprintf "check alice %s" r.Pb.response);
      Engine.run ~until:300.0 c.pb_engine;
      let checks = replies_for c "c1" in
      Alcotest.(check bool) "validated after failover" true
        (checks <> [] && List.for_all (fun x -> x.Pb.response = "valid") checks)
  | [] -> Alcotest.fail "no replies")

let test_pb_basic_request () =
  let c = make_pb_cluster () in
  pb_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:50.0 c.pb_engine;
  let rs = replies_for c "r1" in
  Alcotest.(check int) "reply from every replica" 3 (List.length rs);
  List.iter
    (fun r ->
      Alcotest.(check string) "response" "ok" r.Pb.response;
      let pk = Pb.public_key c.pb_replicas.(r.Pb.server_index) in
      Alcotest.(check bool) "signature valid" true (Pb.verify_reply pk r))
    rs;
  let indices = List.sort compare (List.map (fun r -> r.Pb.server_index) rs) in
  Alcotest.(check (list int)) "distinct signers" [ 0; 1; 2 ] indices

(* A primary that completes a request three proxies forwarded signs its
   reply once and sends that one value to all three. *)
let test_pb_primary_signs_once_for_every_waiter () =
  let module Profiler = Fortress_prof.Profiler in
  let engine = Engine.create ~prng:(Prng.create ~seed:3) () in
  let addresses = Array.init 3 Address.make in
  let proxies = Array.init 3 (fun i -> Address.make (10 + i)) in
  let secret, _ = Sign.generate (Prng.create ~seed:4) in
  let sent = ref [] in
  let primary =
    Pb.create ~engine ~config:Pb.default_config ~index:0 ~service:Services.kv ~secret
      ~self:addresses.(0) ~addresses (fun ~dst msg -> sent := (dst, msg) :: !sent)
  in
  Pb.start primary;
  Array.iter
    (fun p -> Pb.handle primary ~src:p (Pb.Request { id = "r1"; cmd = "put k v"; reply_to = p }))
    proxies;
  Profiler.reset ();
  Profiler.enable ();
  let hmacs =
    Fun.protect
      ~finally:(fun () ->
        Profiler.disable ();
        Profiler.reset ())
      (fun () ->
        (* a backup's ack completes the request *)
        Pb.handle primary ~src:addresses.(1) (Pb.Update_ack { seq = 1; index = 1 });
        List.find_opt (fun (e : Profiler.entry) -> e.name = "crypto.hmac") (Profiler.snapshot ())
        |> Option.fold ~none:0 ~some:(fun (e : Profiler.entry) -> e.count))
  in
  Alcotest.(check int) "one signature" 1 hmacs;
  let replies = List.filter_map (function dst, Pb.Reply r -> Some (dst, r) | _ -> None) !sent in
  Alcotest.(check (list int)) "a reply to each proxy" [ 10; 11; 12 ]
    (List.sort compare (List.map (fun (dst, _) -> Address.id dst) replies));
  match replies with
  | (_, r) :: rest ->
      List.iter (fun (_, r') -> Alcotest.(check bool) "the same reply value" true (r' == r)) rest
  | [] -> Alcotest.fail "no reply"

let test_pb_dedup () =
  let c = make_pb_cluster () in
  pb_submit c ~id:"r1" ~cmd:"incr-like put k v";
  Engine.run ~until:50.0 c.pb_engine;
  pb_submit c ~id:"r1" ~cmd:"incr-like put k v";
  Engine.run ~until:100.0 c.pb_engine;
  Array.iter
    (fun r -> Alcotest.(check int) "executed once" 1 (Pb.executed_count r))
    c.pb_replicas

let test_pb_state_convergence () =
  let c = make_pb_cluster () in
  for i = 1 to 20 do
    pb_submit c ~id:(Printf.sprintf "r%d" i) ~cmd:(Printf.sprintf "put k%d v%d" i i)
  done;
  Engine.run ~until:200.0 c.pb_engine;
  let d0 = Pb.service_digest c.pb_replicas.(0) in
  Array.iter
    (fun r -> Alcotest.(check string) "same digest" d0 (Pb.service_digest r))
    c.pb_replicas;
  Array.iter
    (fun r -> Alcotest.(check int) "same seq" 20 (Pb.applied_seq r))
    c.pb_replicas

let test_pb_nondeterministic_service_converges () =
  (* the headline PB property: a non-DSM service still replicates *)
  let c = make_pb_cluster ~service:Services.lottery () in
  for i = 1 to 10 do
    pb_submit c ~id:(Printf.sprintf "d%d" i) ~cmd:"draw 1000000"
  done;
  Engine.run ~until:200.0 c.pb_engine;
  let d0 = Pb.service_digest c.pb_replicas.(0) in
  Array.iter
    (fun r -> Alcotest.(check string) "lottery digests agree under PB" d0 (Pb.service_digest r))
    c.pb_replicas;
  (* all replicas report the same draw for a given request *)
  let rs = replies_for c "d5" in
  Alcotest.(check int) "three replies" 3 (List.length rs);
  (match rs with
  | r :: rest ->
      List.iter
        (fun r' -> Alcotest.(check string) "same draw" r.Pb.response r'.Pb.response)
        rest
  | [] -> Alcotest.fail "no replies")

let test_pb_primary_identity () =
  let c = make_pb_cluster () in
  Alcotest.(check bool) "replica 0 starts as primary" true (Pb.is_primary c.pb_replicas.(0));
  Alcotest.(check bool) "replica 1 is backup" false (Pb.is_primary c.pb_replicas.(1))

let test_pb_failover () =
  let c = make_pb_cluster () in
  pb_submit c ~id:"before" ~cmd:"put a 1";
  Engine.run ~until:20.0 c.pb_engine;
  (* crash the primary *)
  Pb.stop c.pb_replicas.(0);
  Network.set_down c.pb_net c.pb_addresses.(0);
  pb_submit c ~id:"after" ~cmd:"put b 2";
  Engine.run ~until:200.0 c.pb_engine;
  Alcotest.(check bool) "replica 1 took over" true (Pb.is_primary c.pb_replicas.(1));
  let rs = replies_for c "after" in
  Alcotest.(check bool) "request served after failover" true (List.length rs >= 1);
  List.iter (fun r -> Alcotest.(check string) "response" "ok" r.Pb.response) rs;
  (* both survivors hold both writes *)
  let digest r = Pb.service_digest r in
  Alcotest.(check string) "survivors agree" (digest c.pb_replicas.(1)) (digest c.pb_replicas.(2))

let test_pb_rejoin_after_failover () =
  let c = make_pb_cluster () in
  pb_submit c ~id:"w1" ~cmd:"put a 1";
  Engine.run ~until:20.0 c.pb_engine;
  Pb.stop c.pb_replicas.(0);
  Network.set_down c.pb_net c.pb_addresses.(0);
  pb_submit c ~id:"w2" ~cmd:"put b 2";
  Engine.run ~until:200.0 c.pb_engine;
  (* old primary recovers and resyncs *)
  Network.set_up c.pb_net c.pb_addresses.(0);
  Pb.restart c.pb_replicas.(0);
  Engine.run ~until:300.0 c.pb_engine;
  Alcotest.(check bool) "sync finished" false (Pb.syncing c.pb_replicas.(0));
  Alcotest.(check string) "rejoined replica caught up"
    (Pb.service_digest c.pb_replicas.(1))
    (Pb.service_digest c.pb_replicas.(0));
  (* and it now follows the advanced view *)
  Alcotest.(check bool) "old primary stepped down" false (Pb.is_primary c.pb_replicas.(0))

let test_pb_compromised_primary_poisons_replies () =
  (* the reason PB alone cannot tolerate intrusions *)
  let c = make_pb_cluster () in
  Pb.set_compromised c.pb_replicas.(0) true;
  pb_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:50.0 c.pb_engine;
  let rs = replies_for c "r1" in
  let poisoned = List.filter (fun r -> r.Pb.server_index = 0) rs in
  List.iter
    (fun r ->
      Alcotest.(check string) "poisoned response" "pwned:ok" r.Pb.response;
      let pk = Pb.public_key c.pb_replicas.(0) in
      Alcotest.(check bool) "yet validly signed" true (Pb.verify_reply pk r))
    poisoned;
  Alcotest.(check bool) "poisoned reply present" true (List.length poisoned = 1)

let test_pb_single_replica () =
  (* ns = 1: an unreplicated fortified server is allowed by FORTRESS *)
  let config = { Pb.default_config with ns = 1; ack_quorum = 0 } in
  let c = make_pb_cluster ~config () in
  pb_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:50.0 c.pb_engine;
  let rs = replies_for c "r1" in
  Alcotest.(check int) "one reply" 1 (List.length rs)

(* ---- SMR cluster harness ---- *)

type smr_cluster = {
  smr_engine : Engine.t;
  smr_net : Smr.msg Network.t;
  smr_replicas : Smr.replica array;
  smr_addresses : Address.t array;
  smr_client : Address.t;
  smr_replies : Smr.reply list ref;
}

let make_smr_cluster ?(config = Smr.default_config) ?(service = Services.kv) ?(seed = 4) () =
  let engine = Engine.create ~prng:(Prng.create ~seed) () in
  let net = Network.create ~latency:(Latency.constant 0.5) engine in
  let replies = ref [] in
  let client =
    Network.register net ~name:"client" ~handler:(fun ~src:_ msg ->
        match msg with Smr.Reply r -> replies := r :: !replies | _ -> ())
  in
  let addresses =
    Array.init config.Smr.n (fun i ->
        Network.register net ~name:(Printf.sprintf "s%d" i) ~handler:(fun ~src:_ _ -> ()))
  in
  let prng = Engine.prng engine in
  let replicas =
    Array.init config.Smr.n (fun i ->
        let secret, _ = Sign.generate prng in
        Smr.create ~engine ~config ~index:i ~service ~secret ~self:addresses.(i) ~addresses
          ~send:(fun ~dst msg -> Network.send net ~src:addresses.(i) ~dst msg))
    |> fun reps ->
    Array.iteri
      (fun i addr -> Network.set_handler net addr (fun ~src msg -> Smr.handle reps.(i) ~src msg))
      addresses;
    reps
  in
  Array.iter Smr.start replicas;
  { smr_engine = engine; smr_net = net; smr_replicas = replicas; smr_addresses = addresses;
    smr_client = client; smr_replies = replies }

let smr_submit c ~id ~cmd =
  Array.iter
    (fun dst ->
      Network.send c.smr_net ~src:c.smr_client ~dst
        (Smr.Request { id; cmd; reply_to = c.smr_client }))
    c.smr_addresses

let smr_replies_for c id = List.filter (fun r -> r.Smr.request_id = id) !(c.smr_replies)

let smr_voter c =
  Smr.Voter.create ~f:1 ~public_keys:(Array.map Smr.public_key c.smr_replicas)

let test_smr_basic_request () =
  let c = make_smr_cluster () in
  smr_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:100.0 c.smr_engine;
  let rs = smr_replies_for c "r1" in
  Alcotest.(check int) "reply from all four" 4 (List.length rs);
  let voter = smr_voter c in
  let decided = List.filter_map (fun r -> Smr.Voter.offer voter r) rs in
  Alcotest.(check (list string)) "vote decides once" [ "ok" ] decided

let test_smr_ordering_consistency () =
  let c = make_smr_cluster ~service:Services.counter () in
  for i = 1 to 15 do
    smr_submit c ~id:(Printf.sprintf "r%d" i) ~cmd:"incr"
  done;
  Engine.run ~until:300.0 c.smr_engine;
  Array.iter
    (fun r ->
      Alcotest.(check int) "all executed" 15 (Smr.last_executed r);
      Alcotest.(check string) "digests equal"
        (Smr.service_digest c.smr_replicas.(0))
        (Smr.service_digest r))
    c.smr_replicas

let test_smr_tolerates_one_crash () =
  let c = make_smr_cluster () in
  Smr.stop c.smr_replicas.(3);
  Network.set_down c.smr_net c.smr_addresses.(3);
  smr_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:100.0 c.smr_engine;
  let rs = smr_replies_for c "r1" in
  Alcotest.(check int) "three replies" 3 (List.length rs);
  List.iter (fun r -> Alcotest.(check string) "ok" "ok" r.Smr.response) rs

let test_smr_leader_crash_view_change () =
  let c = make_smr_cluster () in
  Smr.stop c.smr_replicas.(0);
  Network.set_down c.smr_net c.smr_addresses.(0);
  smr_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:500.0 c.smr_engine;
  let rs = smr_replies_for c "r1" in
  Alcotest.(check bool) "executed after view change" true (List.length rs >= 3);
  Alcotest.(check bool) "view advanced" true (Smr.view c.smr_replicas.(1) >= 1);
  Alcotest.(check bool) "new leader exists" true
    (Array.exists (fun r -> Smr.alive r && Smr.is_leader r) c.smr_replicas)

let test_smr_dedup () =
  let c = make_smr_cluster ~service:Services.counter () in
  smr_submit c ~id:"same" ~cmd:"incr";
  Engine.run ~until:100.0 c.smr_engine;
  smr_submit c ~id:"same" ~cmd:"incr";
  Engine.run ~until:200.0 c.smr_engine;
  Array.iter
    (fun r -> Alcotest.(check int) "incr applied once" 1 (Smr.executed_count r))
    c.smr_replicas

let test_smr_one_compromised_outvoted () =
  let c = make_smr_cluster () in
  Smr.set_compromised c.smr_replicas.(2) true;
  smr_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:100.0 c.smr_engine;
  let voter = smr_voter c in
  let decided = List.filter_map (fun r -> Smr.Voter.offer voter r) (smr_replies_for c "r1") in
  Alcotest.(check (list string)) "honest majority wins" [ "ok" ] decided

let test_smr_two_compromised_defeat_vote () =
  (* the paper's S0 failure condition: more than one compromised node *)
  let c = make_smr_cluster () in
  Smr.set_compromised c.smr_replicas.(1) true;
  Smr.set_compromised c.smr_replicas.(2) true;
  smr_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:100.0 c.smr_engine;
  let voter = smr_voter c in
  (* feed compromised replies first: the voter reaches f+1 on the poison *)
  let rs = smr_replies_for c "r1" in
  let poisoned, honest = List.partition (fun r -> r.Smr.response <> "ok") rs in
  let decided = List.filter_map (fun r -> Smr.Voter.offer voter r) (poisoned @ honest) in
  Alcotest.(check (list string)) "two intrusions poison the vote" [ "pwned:ok" ] decided

let test_smr_voter_rejects_bad_signature () =
  let c = make_smr_cluster () in
  smr_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:100.0 c.smr_engine;
  let voter = smr_voter c in
  match smr_replies_for c "r1" with
  | r :: _ ->
      let tampered = { r with Smr.response = "evil" } in
      Alcotest.(check bool) "tampered reply ignored" true
        (Smr.Voter.offer voter tampered = None)
  | [] -> Alcotest.fail "no replies"

let test_smr_checkpointing () =
  let config = { Smr.default_config with checkpoint_interval = 5 } in
  let c = make_smr_cluster ~config ~service:Services.counter () in
  for i = 1 to 12 do
    smr_submit c ~id:(Printf.sprintf "r%d" i) ~cmd:"incr"
  done;
  Engine.run ~until:300.0 c.smr_engine;
  Array.iter
    (fun r -> Alcotest.(check bool) "stable checkpoint advanced" true (Smr.stable_checkpoint r >= 5))
    c.smr_replicas

let test_smr_state_transfer () =
  let c = make_smr_cluster ~service:Services.counter () in
  smr_submit c ~id:"r1" ~cmd:"incr";
  Engine.run ~until:50.0 c.smr_engine;
  (* replica 3 is wiped by proactive recovery and must restore from peers *)
  Smr.stop c.smr_replicas.(3);
  Network.set_down c.smr_net c.smr_addresses.(3);
  smr_submit c ~id:"r2" ~cmd:"incr";
  Engine.run ~until:100.0 c.smr_engine;
  Network.set_up c.smr_net c.smr_addresses.(3);
  Smr.restart c.smr_replicas.(3);
  Smr.begin_state_transfer c.smr_replicas.(3);
  Engine.run ~until:200.0 c.smr_engine;
  Alcotest.(check bool) "transfer completed" false (Smr.in_state_transfer c.smr_replicas.(3));
  Alcotest.(check string) "state matches peers"
    (Smr.service_digest c.smr_replicas.(0))
    (Smr.service_digest c.smr_replicas.(3))

let test_smr_nondeterministic_service_diverges () =
  (* the paper's motivation: SMR is only sound for deterministic services *)
  let c = make_smr_cluster ~service:Services.lottery () in
  smr_submit c ~id:"d1" ~cmd:"draw 1000000000";
  Engine.run ~until:100.0 c.smr_engine;
  let digests =
    Array.to_list (Array.map Smr.service_digest c.smr_replicas) |> List.sort_uniq compare
  in
  Alcotest.(check bool) "replicas diverged" true (List.length digests > 1);
  let voter = smr_voter c in
  let decided =
    List.filter_map (fun r -> Smr.Voter.offer voter r) (smr_replies_for c "d1")
  in
  Alcotest.(check (list string)) "no f+1 agreement on a random draw" [] decided

let test_smr_f2_cluster () =
  (* the quorum arithmetic generalises: n = 7, f = 2 *)
  let config = { Smr.default_config with n = 7; f = 2 } in
  let c = make_smr_cluster ~config ~service:Services.counter () in
  (* crash two replicas: the cluster must still order and execute *)
  Smr.stop c.smr_replicas.(5);
  Network.set_down c.smr_net c.smr_addresses.(5);
  Smr.stop c.smr_replicas.(6);
  Network.set_down c.smr_net c.smr_addresses.(6);
  for i = 1 to 5 do
    smr_submit c ~id:(Printf.sprintf "r%d" i) ~cmd:"incr"
  done;
  Engine.run ~until:300.0 c.smr_engine;
  for i = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d executed all" i)
      5
      (Smr.last_executed c.smr_replicas.(i))
  done;
  (* and the f=2 voter needs three matching replies *)
  let voter = Smr.Voter.create ~f:2 ~public_keys:(Array.map Smr.public_key c.smr_replicas) in
  let decided = List.filter_map (fun r -> Smr.Voter.offer voter r) (smr_replies_for c "r1") in
  Alcotest.(check int) "vote decides once" 1 (List.length decided)

let test_smr_f2_two_compromised_masked () =
  let config = { Smr.default_config with n = 7; f = 2 } in
  let c = make_smr_cluster ~config () in
  Smr.set_compromised c.smr_replicas.(1) true;
  Smr.set_compromised c.smr_replicas.(2) true;
  smr_submit c ~id:"r1" ~cmd:"put k v";
  Engine.run ~until:200.0 c.smr_engine;
  let voter = Smr.Voter.create ~f:2 ~public_keys:(Array.map Smr.public_key c.smr_replicas) in
  let decided = List.filter_map (fun r -> Smr.Voter.offer voter r) (smr_replies_for c "r1") in
  Alcotest.(check (list string)) "two intruders masked at f=2" [ "ok" ] decided

let test_smr_config_validation () =
  let engine = Engine.create () in
  let net = Network.create engine in
  let addr = Network.register net ~name:"x" ~handler:(fun ~src:_ _ -> ()) in
  let secret, _ = Sign.generate (Prng.create ~seed:1) in
  Alcotest.check_raises "n must be 3f+1" (Invalid_argument "Smr.create: n must be 3f+1")
    (fun () ->
      ignore
        (Smr.create ~engine
           ~config:{ Smr.default_config with n = 5 }
           ~index:0 ~service:Services.kv ~secret ~self:addr ~addresses:[| addr |]
           ~send:(fun ~dst:_ _ -> ())))

let test_pb_double_failover () =
  (* both the primary and its first successor die; the last replica must
     still take over and serve *)
  let c = make_pb_cluster () in
  pb_submit c ~id:"w1" ~cmd:"put a 1";
  Engine.run ~until:20.0 c.pb_engine;
  Pb.stop c.pb_replicas.(0);
  Network.set_down c.pb_net c.pb_addresses.(0);
  Engine.run ~until:120.0 c.pb_engine;
  Alcotest.(check bool) "replica 1 took over first" true (Pb.is_primary c.pb_replicas.(1));
  Pb.stop c.pb_replicas.(1);
  Network.set_down c.pb_net c.pb_addresses.(1);
  pb_submit c ~id:"w2" ~cmd:"put b 2";
  Engine.run ~until:400.0 c.pb_engine;
  Alcotest.(check bool) "replica 2 ended as primary" true (Pb.is_primary c.pb_replicas.(2));
  let rs = replies_for c "w2" in
  Alcotest.(check bool) "lone survivor serves" true
    (rs <> [] && List.for_all (fun r -> r.Pb.response = "ok") rs)

let test_pb_ack_timeout_availability () =
  (* with every backup down the primary cannot gather acks, but after
     ack_timeout it answers anyway: availability over durability *)
  let config = { Pb.default_config with ack_timeout = 10.0 } in
  let c = make_pb_cluster ~config () in
  Pb.stop c.pb_replicas.(1);
  Network.set_down c.pb_net c.pb_addresses.(1);
  Pb.stop c.pb_replicas.(2);
  Network.set_down c.pb_net c.pb_addresses.(2);
  pb_submit c ~id:"solo" ~cmd:"put k v";
  Engine.run ~until:100.0 c.pb_engine;
  let rs = replies_for c "solo" in
  Alcotest.(check int) "only the primary replies" 1 (List.length rs);
  List.iter (fun r -> Alcotest.(check string) "served" "ok" r.Pb.response) rs

let test_pb_ns5_cluster () =
  (* the protocol generalises beyond the paper's ns = 3 *)
  let config = { Pb.default_config with ns = 5; ack_quorum = 2 } in
  let c = make_pb_cluster ~config () in
  for i = 1 to 8 do
    pb_submit c ~id:(Printf.sprintf "w%d" i) ~cmd:(Printf.sprintf "put k%d v" i)
  done;
  Engine.run ~until:150.0 c.pb_engine;
  Array.iter
    (fun r ->
      Alcotest.(check int) "all five applied everything" 8 (Pb.applied_seq r))
    c.pb_replicas;
  let rs = replies_for c "w3" in
  Alcotest.(check int) "five signed replies" 5 (List.length rs)

(* ---- stable storage ---- *)

let test_storage_roundtrip () =
  let s = Storage.create () in
  Storage.write s ~key:"a" "hello";
  Alcotest.(check (option string)) "read back" (Some "hello") (Storage.read s ~key:"a");
  Alcotest.(check bool) "mem" true (Storage.mem s ~key:"a");
  Storage.delete s ~key:"a";
  Alcotest.(check (option string)) "deleted" None (Storage.read s ~key:"a")

let test_storage_overwrite () =
  let s = Storage.create () in
  Storage.write s ~key:"a" "v1";
  Storage.write s ~key:"a" "v2";
  Alcotest.(check (option string)) "latest wins" (Some "v2") (Storage.read s ~key:"a");
  Alcotest.(check int) "two writes" 2 (Storage.writes s)

let test_storage_corruption_detected () =
  let s = Storage.create () in
  Storage.write s ~key:"a" "payload";
  Storage.corrupt s ~key:"a";
  Alcotest.(check (option string)) "damaged record rejected" None (Storage.read s ~key:"a");
  Alcotest.(check bool) "mem false" false (Storage.mem s ~key:"a")

let test_storage_keys_sorted () =
  let s = Storage.create () in
  Storage.write s ~key:"b" "2";
  Storage.write s ~key:"a" "1";
  Storage.write s ~key:"c" "3";
  Storage.corrupt s ~key:"c";
  Alcotest.(check (list string)) "intact keys only, sorted" [ "a"; "b" ] (Storage.keys s)

let test_storage_wipe () =
  let s = Storage.create () in
  Storage.write s ~key:"a" "1";
  Storage.wipe s;
  Alcotest.(check (list string)) "empty" [] (Storage.keys s)

let test_storage_log_append_entries () =
  let s = Storage.create () in
  let log = Storage.Log.attach s ~name:"wal" in
  Storage.Log.append log "e0";
  Storage.Log.append log "e1";
  Storage.Log.append log "e2";
  Alcotest.(check (list string)) "in order" [ "e0"; "e1"; "e2" ] (Storage.Log.entries log);
  Alcotest.(check int) "length" 3 (Storage.Log.length log)

let test_storage_log_reattach () =
  let s = Storage.create () in
  let log = Storage.Log.attach s ~name:"wal" in
  Storage.Log.append log "e0";
  Storage.Log.append log "e1";
  (* a new handle over the same store resumes where the old one stopped *)
  let log2 = Storage.Log.attach s ~name:"wal" in
  Alcotest.(check int) "recovered length" 2 (Storage.Log.length log2);
  Storage.Log.append log2 "e2";
  Alcotest.(check (list string)) "continues" [ "e0"; "e1"; "e2" ] (Storage.Log.entries log2)

let test_storage_log_hole_truncates () =
  let s = Storage.create () in
  let log = Storage.Log.attach s ~name:"wal" in
  List.iter (Storage.Log.append log) [ "e0"; "e1"; "e2"; "e3" ];
  Storage.corrupt s ~key:"log:wal:000001";
  Alcotest.(check (list string)) "prefix before the hole" [ "e0" ] (Storage.Log.entries log)

let test_storage_log_truncate () =
  let s = Storage.create () in
  let log = Storage.Log.attach s ~name:"wal" in
  List.iter (Storage.Log.append log) [ "e0"; "e1" ];
  Storage.Log.truncate log;
  Alcotest.(check (list string)) "empty" [] (Storage.Log.entries log);
  Storage.Log.append log "fresh";
  Alcotest.(check (list string)) "restarts from zero" [ "fresh" ] (Storage.Log.entries log)

let test_storage_independent_logs () =
  let s = Storage.create () in
  let a = Storage.Log.attach s ~name:"a" in
  let b = Storage.Log.attach s ~name:"b" in
  Storage.Log.append a "from-a";
  Storage.Log.append b "from-b";
  Alcotest.(check (list string)) "a" [ "from-a" ] (Storage.Log.entries a);
  Alcotest.(check (list string)) "b" [ "from-b" ] (Storage.Log.entries b)

(* ---- PB with stable storage ---- *)

let make_pb_cluster_with_storage ?(config = Pb.default_config) ?(seed = 3) () =
  let engine = Engine.create ~prng:(Prng.create ~seed) () in
  let net = Network.create ~latency:(Latency.constant 0.5) engine in
  let replies = ref [] in
  let client =
    Network.register net ~name:"client" ~handler:(fun ~src:_ msg ->
        match msg with Pb.Reply r -> replies := r :: !replies | _ -> ())
  in
  let addresses =
    Array.init config.Pb.ns (fun i ->
        Network.register net ~name:(Printf.sprintf "s%d" i) ~handler:(fun ~src:_ _ -> ()))
  in
  let prng = Engine.prng engine in
  let stores = Array.init config.Pb.ns (fun _ -> Storage.create ()) in
  let replicas =
    Array.init config.Pb.ns (fun i ->
        let secret, _ = Sign.generate prng in
        Pb.create ~storage:stores.(i) ~engine ~config ~index:i ~service:Services.counter ~secret
          ~self:addresses.(i) ~addresses
          (fun ~dst msg -> Network.send net ~src:addresses.(i) ~dst msg))
    |> fun reps ->
    Array.iteri
      (fun i addr -> Network.set_handler net addr (fun ~src msg -> Pb.handle reps.(i) ~src msg))
      addresses;
    reps
  in
  Array.iter Pb.start replicas;
  ( { pb_engine = engine; pb_net = net; pb_replicas = replicas; pb_addresses = addresses;
      pb_client = client; pb_replies = replies },
    stores )

let test_pb_persists_progress () =
  let c, _stores = make_pb_cluster_with_storage () in
  for i = 1 to 20 do
    pb_submit c ~id:(Printf.sprintf "w%d" i) ~cmd:"incr"
  done;
  Engine.run ~until:200.0 c.pb_engine;
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d persisted everything (%d)" (Pb.index r) (Pb.persisted_seq r))
        true
        (Pb.persisted_seq r = 20))
    c.pb_replicas

let test_pb_restart_from_storage () =
  let c, _stores = make_pb_cluster_with_storage () in
  for i = 1 to 13 do
    pb_submit c ~id:(Printf.sprintf "w%d" i) ~cmd:"incr"
  done;
  Engine.run ~until:200.0 c.pb_engine;
  let digest_before = Pb.service_digest c.pb_replicas.(2) in
  (* replica 2 reboots, losing volatile state; 13 = one snapshot (at 8)
     plus five WAL entries, so the reload exercises both paths *)
  Pb.stop c.pb_replicas.(2);
  Network.set_down c.pb_net c.pb_addresses.(2);
  Engine.run ~until:210.0 c.pb_engine;
  Network.set_up c.pb_net c.pb_addresses.(2);
  Alcotest.(check bool) "reload succeeded" true (Pb.restart_from_storage c.pb_replicas.(2));
  Alcotest.(check int) "sequence recovered locally" 13 (Pb.applied_seq c.pb_replicas.(2));
  Alcotest.(check string) "state recovered locally" digest_before
    (Pb.service_digest c.pb_replicas.(2));
  Engine.run ~until:400.0 c.pb_engine;
  Alcotest.(check string) "still consistent with peers"
    (Pb.service_digest c.pb_replicas.(0))
    (Pb.service_digest c.pb_replicas.(2))

let test_pb_restart_from_corrupt_storage_falls_back () =
  let c, stores = make_pb_cluster_with_storage () in
  for i = 1 to 10 do
    pb_submit c ~id:(Printf.sprintf "w%d" i) ~cmd:"incr"
  done;
  Engine.run ~until:200.0 c.pb_engine;
  Storage.corrupt stores.(2) ~key:"pb-snapshot";
  Pb.stop c.pb_replicas.(2);
  Alcotest.(check bool) "damaged snapshot refused" false
    (Pb.restart_from_storage c.pb_replicas.(2));
  (* plain restart still recovers over the network *)
  Pb.restart c.pb_replicas.(2);
  Engine.run ~until:400.0 c.pb_engine;
  Alcotest.(check string) "network sync recovered it"
    (Pb.service_digest c.pb_replicas.(0))
    (Pb.service_digest c.pb_replicas.(2))

let test_pb_no_storage_restart_from_storage_false () =
  let c = make_pb_cluster () in
  Alcotest.(check bool) "no storage attached" false
    (Pb.restart_from_storage c.pb_replicas.(0));
  Alcotest.(check int) "persisted_seq sentinel" (-1) (Pb.persisted_seq c.pb_replicas.(0))

(* ---- Byzantine injection ---- *)

let test_smr_equivocating_preprepares_no_divergence () =
  (* a Byzantine leader sends conflicting proposals for the same sequence
     number to different replicas; safety demands that no two honest
     replicas execute different commands at that sequence *)
  let c = make_smr_cluster ~service:Services.counter () in
  let seq = 1 and view = 0 in
  let forge dst msg = Network.send c.smr_net ~src:c.smr_addresses.(0) ~dst msg in
  forge c.smr_addresses.(1)
    (Smr.Preprepare { view; seq; id = "evil"; cmd = "incr"; reply_to = c.smr_client });
  forge c.smr_addresses.(2)
    (Smr.Preprepare { view; seq; id = "evil2"; cmd = "add 100"; reply_to = c.smr_client });
  forge c.smr_addresses.(3)
    (Smr.Preprepare { view; seq; id = "evil"; cmd = "incr"; reply_to = c.smr_client });
  (* commit needs 2f+1 = 3 votes, and the conflicting proposal splits the
     prepare/commit quorums, so neither command can commit in view 0; the
     request timeout then drives a view change and an honest leader
     re-proposes — liveness restores order, safety is never at risk *)
  Engine.run ~until:600.0 c.smr_engine;
  let digests =
    Array.to_list (Array.map Smr.service_digest c.smr_replicas) |> List.sort_uniq compare
  in
  Alcotest.(check int) "no state divergence" 1 (List.length digests);
  let last = Array.map Smr.last_executed c.smr_replicas in
  Array.iter
    (fun l -> Alcotest.(check int) "all replicas executed the same count" last.(0) l)
    last;
  (* whatever was (re)ordered, it is a serial subset of the two injected
     commands: counter value must be one of 0, 1, 100 or 101 *)
  let value =
    Dsm.Instance.apply
      (let i = Dsm.Instance.create Services.counter in
       Dsm.Instance.restore i (Smr.service_snapshot c.smr_replicas.(0));
       i)
      ~entropy:0L "read"
  in
  Alcotest.(check bool)
    (Printf.sprintf "serial outcome (counter = %s)" value)
    true
    (List.mem value [ "0"; "1"; "100"; "101" ])

let test_smr_forged_prepare_votes_insufficient () =
  (* prepares forged for an entry nobody preprepared are ignored *)
  let c = make_smr_cluster () in
  let digest = Fortress_crypto.Sha256.digest "bogus" in
  for voter = 0 to 3 do
    Network.send c.smr_net ~src:c.smr_addresses.(0) ~dst:c.smr_addresses.(1)
      (Smr.Prepare { view = 0; seq = 5; digest; index = voter })
  done;
  Engine.run ~until:50.0 c.smr_engine;
  Alcotest.(check int) "nothing executed" 0 (Smr.last_executed c.smr_replicas.(1))

let test_smr_stale_view_preprepare_ignored () =
  let c = make_smr_cluster ~service:Services.counter () in
  (* legitimate execution first, moving replicas to view 0 state *)
  smr_submit c ~id:"r1" ~cmd:"incr";
  Engine.run ~until:100.0 c.smr_engine;
  (* a preprepare for an already-executed sequence number must be ignored *)
  Network.send c.smr_net ~src:c.smr_addresses.(0) ~dst:c.smr_addresses.(1)
    (Smr.Preprepare { view = 0; seq = 1; id = "replay"; cmd = "add 50"; reply_to = c.smr_client });
  Engine.run ~until:200.0 c.smr_engine;
  Alcotest.(check int) "no replay execution" 1 (Smr.last_executed c.smr_replicas.(1));
  Alcotest.(check string) "states agree"
    (Smr.service_digest c.smr_replicas.(0))
    (Smr.service_digest c.smr_replicas.(1))

(* ---- fault-schedule property tests ---- *)

(* Drive a PB cluster through a random schedule of single-replica crashes
   and recoveries interleaved with writes; afterwards every live replica
   must hold the same state and every submitted request must have been
   answered. The schedule is a list of (victim, crash_gap, down_time)
   triples applied sequentially. *)
let pb_fault_schedule_holds schedule =
  let config = { Pb.default_config with heartbeat_period = 2.0; suspect_timeout = 8.0 } in
  let c = make_pb_cluster ~config ~seed:(Hashtbl.hash schedule land 0xFFFF) () in
  let engine = c.pb_engine in
  let now = ref 0.0 in
  let req = ref 0 in
  let submit_at t =
    incr req;
    let id = Printf.sprintf "fs%d" !req in
    ignore
      (Engine.schedule_at engine ~time:t (fun () ->
           pb_submit c ~id ~cmd:(Printf.sprintf "put k%d v%d" !req !req)))
  in
  List.iter
    (fun (victim, gap, down) ->
      let victim = victim mod 3 in
      let gap = float_of_int (5 + (gap mod 20)) in
      let down = float_of_int (15 + (down mod 30)) in
      let crash_at = !now +. gap in
      let restore_at = crash_at +. down in
      submit_at (!now +. 1.0);
      ignore
        (Engine.schedule_at engine ~time:crash_at (fun () ->
             Pb.stop c.pb_replicas.(victim);
             Network.set_down c.pb_net c.pb_addresses.(victim)));
      submit_at (crash_at +. 2.0);
      ignore
        (Engine.schedule_at engine ~time:restore_at (fun () ->
             Network.set_up c.pb_net c.pb_addresses.(victim);
             Pb.restart c.pb_replicas.(victim)));
      now := restore_at +. 40.0)
    schedule;
  submit_at (!now +. 1.0);
  Engine.run ~until:(!now +. 400.0) engine;
  let alive = Array.to_list c.pb_replicas |> List.filter Pb.alive in
  let digests = List.map Pb.service_digest alive |> List.sort_uniq compare in
  let answered =
    List.init !req (fun i -> Printf.sprintf "fs%d" (i + 1))
    |> List.for_all (fun id -> replies_for c id <> [])
  in
  List.length digests = 1 && answered && List.length alive = 3

let smr_fault_schedule_holds schedule =
  let c = make_smr_cluster ~seed:(Hashtbl.hash schedule land 0xFFFF) () in
  let engine = c.smr_engine in
  let now = ref 0.0 in
  let req = ref 0 in
  List.iter
    (fun (victim, down) ->
      let victim = victim mod 4 in
      let down = float_of_int (20 + (down mod 40)) in
      incr req;
      let id = Printf.sprintf "sf%d" !req in
      ignore
        (Engine.schedule_at engine ~time:(!now +. 1.0) (fun () -> smr_submit c ~id ~cmd:"incr"));
      ignore
        (Engine.schedule_at engine ~time:(!now +. 5.0) (fun () ->
             Smr.stop c.smr_replicas.(victim);
             Network.set_down c.smr_net c.smr_addresses.(victim)));
      ignore
        (Engine.schedule_at engine
           ~time:(!now +. 5.0 +. down)
           (fun () ->
             Network.set_up c.smr_net c.smr_addresses.(victim);
             Smr.restart c.smr_replicas.(victim);
             Smr.begin_state_transfer c.smr_replicas.(victim)));
      now := !now +. 5.0 +. down +. 120.0)
    schedule;
  Engine.run ~until:(!now +. 600.0) engine;
  (* all requests must be executed with agreement among the replicas *)
  let last = Array.map Smr.last_executed c.smr_replicas in
  let digests =
    Array.to_list (Array.map Smr.service_digest c.smr_replicas) |> List.sort_uniq compare
  in
  Array.for_all (fun l -> l = !req) last && List.length digests = 1

let fault_qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"pb survives random crash/recovery schedules" ~count:15
      (list_of_size (Gen.int_range 1 3) (triple small_nat small_nat small_nat))
      (fun schedule -> pb_fault_schedule_holds schedule);
    Test.make ~name:"smr converges under random single-crash schedules" ~count:10
      (list_of_size (Gen.int_range 1 3) (pair small_nat small_nat))
      (fun schedule -> smr_fault_schedule_holds schedule);
  ]

let () =
  Alcotest.run "fortress_replication"
    [
      ( "services",
        [
          Alcotest.test_case "kv basic" `Quick test_kv_basic;
          Alcotest.test_case "kv snapshot round-trip" `Quick test_kv_snapshot_roundtrip;
          Alcotest.test_case "kv snapshot canonical" `Quick test_kv_snapshot_canonical;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "bank" `Quick test_bank;
          Alcotest.test_case "bank conservation" `Quick test_bank_conservation;
          Alcotest.test_case "lottery entropy dependence" `Quick test_lottery_entropy_dependence;
          Alcotest.test_case "session service" `Quick test_session_service;
          Alcotest.test_case "session replicates under PB" `Quick test_session_replicates_under_pb;
          Alcotest.test_case "registry" `Quick test_service_registry;
          Alcotest.test_case "instance reset" `Quick test_instance_reset;
        ] );
      ( "primary-backup",
        [
          Alcotest.test_case "basic request" `Quick test_pb_basic_request;
          Alcotest.test_case "request dedup" `Quick test_pb_dedup;
          Alcotest.test_case "primary signs once for every waiter" `Quick
            test_pb_primary_signs_once_for_every_waiter;
          Alcotest.test_case "state convergence" `Quick test_pb_state_convergence;
          Alcotest.test_case "nondeterministic service converges" `Quick
            test_pb_nondeterministic_service_converges;
          Alcotest.test_case "primary identity" `Quick test_pb_primary_identity;
          Alcotest.test_case "failover" `Quick test_pb_failover;
          Alcotest.test_case "rejoin after failover" `Quick test_pb_rejoin_after_failover;
          Alcotest.test_case "compromised primary poisons replies" `Quick
            test_pb_compromised_primary_poisons_replies;
          Alcotest.test_case "single replica" `Quick test_pb_single_replica;
          Alcotest.test_case "double failover" `Quick test_pb_double_failover;
          Alcotest.test_case "ack timeout availability" `Quick test_pb_ack_timeout_availability;
          Alcotest.test_case "five-replica cluster" `Quick test_pb_ns5_cluster;
        ] );
      ( "smr",
        [
          Alcotest.test_case "basic request with vote" `Quick test_smr_basic_request;
          Alcotest.test_case "ordering consistency" `Quick test_smr_ordering_consistency;
          Alcotest.test_case "tolerates one crash" `Quick test_smr_tolerates_one_crash;
          Alcotest.test_case "leader crash view change" `Quick test_smr_leader_crash_view_change;
          Alcotest.test_case "request dedup" `Quick test_smr_dedup;
          Alcotest.test_case "one compromised outvoted" `Quick test_smr_one_compromised_outvoted;
          Alcotest.test_case "two compromised defeat vote" `Quick
            test_smr_two_compromised_defeat_vote;
          Alcotest.test_case "voter rejects bad signature" `Quick
            test_smr_voter_rejects_bad_signature;
          Alcotest.test_case "checkpointing" `Quick test_smr_checkpointing;
          Alcotest.test_case "state transfer" `Quick test_smr_state_transfer;
          Alcotest.test_case "nondeterministic service diverges" `Quick
            test_smr_nondeterministic_service_diverges;
          Alcotest.test_case "config validation" `Quick test_smr_config_validation;
          Alcotest.test_case "f=2 cluster" `Quick test_smr_f2_cluster;
          Alcotest.test_case "f=2 masks two intruders" `Quick test_smr_f2_two_compromised_masked;
        ] );
      ( "storage",
        [
          Alcotest.test_case "round-trip" `Quick test_storage_roundtrip;
          Alcotest.test_case "overwrite" `Quick test_storage_overwrite;
          Alcotest.test_case "corruption detected" `Quick test_storage_corruption_detected;
          Alcotest.test_case "keys sorted and intact" `Quick test_storage_keys_sorted;
          Alcotest.test_case "wipe" `Quick test_storage_wipe;
          Alcotest.test_case "log append/entries" `Quick test_storage_log_append_entries;
          Alcotest.test_case "log reattach" `Quick test_storage_log_reattach;
          Alcotest.test_case "log hole truncates" `Quick test_storage_log_hole_truncates;
          Alcotest.test_case "log truncate" `Quick test_storage_log_truncate;
          Alcotest.test_case "independent logs" `Quick test_storage_independent_logs;
        ] );
      ( "pb-persistence",
        [
          Alcotest.test_case "persists progress" `Quick test_pb_persists_progress;
          Alcotest.test_case "restart from storage" `Quick test_pb_restart_from_storage;
          Alcotest.test_case "corrupt snapshot falls back" `Quick
            test_pb_restart_from_corrupt_storage_falls_back;
          Alcotest.test_case "no storage sentinel" `Quick
            test_pb_no_storage_restart_from_storage_false;
        ] );
      ( "byzantine-injection",
        [
          Alcotest.test_case "equivocation cannot diverge state" `Quick
            test_smr_equivocating_preprepares_no_divergence;
          Alcotest.test_case "forged prepares insufficient" `Quick
            test_smr_forged_prepare_votes_insufficient;
          Alcotest.test_case "stale preprepare ignored" `Quick
            test_smr_stale_view_preprepare_ignored;
        ] );
      ("fault-schedules", List.map QCheck_alcotest.to_alcotest fault_qcheck_tests);
    ]
