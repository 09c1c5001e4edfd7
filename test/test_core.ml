open Fortress_core
module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Pb = Fortress_replication.Pb
module Sign = Fortress_crypto.Sign
module Keyspace = Fortress_defense.Keyspace
module Instance = Fortress_defense.Instance
module Prng = Fortress_util.Prng

let make ?(config = Deployment.default_config) () = Deployment.create config

(* ---- Nameserver ---- *)

let test_nameserver_publish_lookup () =
  let d = make () in
  let ns = Deployment.nameserver d in
  (match Nameserver.lookup ns "kv" with
  | Some record ->
      Alcotest.(check int) "3 proxies" 3 (Array.length record.Nameserver.proxy_addresses);
      Alcotest.(check int) "3 server indices" 3 (Array.length record.Nameserver.server_indices);
      Alcotest.(check bool) "pb replication" true
        (record.Nameserver.replication = Nameserver.Primary_backup)
  | None -> Alcotest.fail "service missing");
  Alcotest.(check bool) "unknown service" true (Nameserver.lookup ns "nope" = None);
  Alcotest.(check (list string)) "service list" [ "kv" ] (Nameserver.services ns)

let test_nameserver_client_view_hides_servers () =
  let d = make () in
  let view = Nameserver.client_view (Deployment.record d) in
  (* client view lists proxy addresses but only server *indices* *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions indices" true (contains view "indices only");
  let server_addr =
    Fortress_net.Address.to_string (Deployment.server_addresses d).(0)
  in
  Alcotest.(check bool) "no server address leaked" false (contains view server_addr)

let test_nameserver_validation () =
  let ns = Nameserver.create () in
  Alcotest.check_raises "inconsistent record"
    (Invalid_argument "Nameserver.publish: proxy address/key mismatch") (fun () ->
      Nameserver.publish ns
        {
          Nameserver.service = "bad";
          proxy_addresses = [| Fortress_net.Address.make 0 |];
          proxy_keys = [||];
          server_indices = [||];
          server_keys = [||];
          replication = Nameserver.Primary_backup;
        })

(* ---- end-to-end request flow ---- *)

let test_end_to_end_doubly_signed () =
  let d = make () in
  let client = Deployment.new_client d ~name:"c1" in
  let response = ref "" in
  ignore (Client.submit client ~cmd:"put k v" ~on_response:(fun r -> response := r));
  Engine.run ~until:50.0 (Deployment.engine d);
  Alcotest.(check string) "response" "ok" !response;
  Alcotest.(check int) "accepted once despite 3 proxies" 1 (Client.accepted client);
  Alcotest.(check int) "nothing rejected" 0 (Client.rejected client)

let test_multiple_clients () =
  let d = make () in
  let c1 = Deployment.new_client d ~name:"c1" in
  let c2 = Deployment.new_client d ~name:"c2" in
  let r1 = ref "" and r2 = ref "" in
  ignore (Client.submit c1 ~cmd:"put who c1" ~on_response:(fun r -> r1 := r));
  ignore (Client.submit c2 ~cmd:"get missing" ~on_response:(fun r -> r2 := r));
  Engine.run ~until:50.0 (Deployment.engine d);
  Alcotest.(check string) "c1 write" "ok" !r1;
  Alcotest.(check string) "c2 read misses" "err:not_found" !r2

let test_keys_layout () =
  (* FORTRESS: all servers share one key; proxies have distinct keys,
     different from the server key — np + 1 keys in use *)
  let d = make () in
  let server_keys =
    Array.to_list (Array.map Instance.key (Deployment.server_instances d))
  in
  let proxy_keys = Array.to_list (Array.map Instance.key (Deployment.proxy_instances d)) in
  (match server_keys with
  | k :: rest -> List.iter (fun k' -> Alcotest.(check int) "servers share a key" k k') rest
  | [] -> Alcotest.fail "no servers");
  let all = List.hd server_keys :: proxy_keys in
  Alcotest.(check int) "np + 1 distinct keys" 4 (List.length (List.sort_uniq compare all))

let test_rekey_preserves_layout () =
  let d = make () in
  let before = Instance.key (Deployment.server_instances d).(0) in
  let changed = ref 0 in
  for _ = 1 to 50 do
    Deployment.rekey d;
    let now = Instance.key (Deployment.server_instances d).(0) in
    if now <> before then incr changed;
    (* invariant re-checked after every rekey *)
    let sk = Array.map Instance.key (Deployment.server_instances d) in
    Array.iter (fun k -> Alcotest.(check int) "shared" sk.(0) k) sk;
    let all =
      sk.(0) :: Array.to_list (Array.map Instance.key (Deployment.proxy_instances d))
    in
    Alcotest.(check int) "still np+1 distinct" 4 (List.length (List.sort_uniq compare all))
  done;
  Alcotest.(check bool) "keys actually rotate" true (!changed > 45)

let test_recover_keeps_keys () =
  let d = make () in
  let sk = Instance.key (Deployment.server_instances d).(0) in
  let pk = Instance.key (Deployment.proxy_instances d).(1) in
  Deployment.recover d;
  Alcotest.(check int) "server key unchanged" sk (Instance.key (Deployment.server_instances d).(0));
  Alcotest.(check int) "proxy key unchanged" pk (Instance.key (Deployment.proxy_instances d).(1))

let test_compromise_bookkeeping () =
  let d = make () in
  Alcotest.(check bool) "initially sound" false (Deployment.system_compromised d);
  Deployment.compromise_proxy d 0;
  Alcotest.(check bool) "one proxy is not enough" false (Deployment.system_compromised d);
  Deployment.compromise_proxy d 1;
  Deployment.compromise_proxy d 2;
  Alcotest.(check bool) "all proxies = compromised" true (Deployment.system_compromised d);
  Deployment.rekey d;
  Alcotest.(check bool) "rekey evicts" false (Deployment.system_compromised d);
  Deployment.compromise_server d 0;
  Alcotest.(check bool) "any server = compromised" true (Deployment.system_compromised d)

let test_compromised_server_poisons_but_client_detects_nothing () =
  (* paper: compromising the primary defeats the whole fortified system —
     the poisoned response is validly signed and over-signed *)
  let d = make () in
  Deployment.compromise_server d 0;
  let client = Deployment.new_client d ~name:"victim" in
  let response = ref "" in
  ignore (Client.submit client ~cmd:"put k v" ~on_response:(fun r -> response := r));
  Engine.run ~until:50.0 (Deployment.engine d);
  Alcotest.(check string) "poisoned response accepted" "pwned:ok" !response

let test_compromised_proxy_is_availability_only () =
  (* one compromised proxy cannot forge server signatures; the other two
     still deliver the honest response *)
  let d = make () in
  Deployment.compromise_proxy d 0;
  let client = Deployment.new_client d ~name:"c" in
  let response = ref "" in
  ignore (Client.submit client ~cmd:"put k v" ~on_response:(fun r -> response := r));
  Engine.run ~until:50.0 (Deployment.engine d);
  Alcotest.(check string) "honest proxies still serve" "ok" !response

let test_client_rejects_forged_proxy_signature () =
  let d = make () in
  let client = Deployment.new_client d ~name:"c" in
  let engine = Deployment.engine d in
  (* capture a genuine doubly-signed reply by submitting a request *)
  let id = Client.submit client ~cmd:"put k v" ~on_response:(fun _ -> ()) in
  Engine.run ~until:50.0 engine;
  Alcotest.(check bool) "answered" true (Client.response_for client ~id <> None);
  (* now forge: a reply signed by a key outside the nameserver record *)
  let prng = Prng.create ~seed:999 in
  let rogue_secret, _ = Sign.generate prng in
  let reply =
    {
      Pb.request_id = "forged";
      response = "evil";
      server_index = 0;
      signature = Sign.sign rogue_secret "whatever";
    }
  in
  let before = Client.rejected client in
  Client.handle client ~src:(Fortress_net.Address.make 0)
    (Message.Client_reply
       { reply; proxy_index = 0; proxy_signature = Sign.sign rogue_secret "x" });
  Alcotest.(check int) "rejected" (before + 1) (Client.rejected client)

let test_client_rejects_singly_signed_when_fortified () =
  let d = make () in
  let client = Deployment.new_client d ~name:"c" in
  (* a server reply delivered directly (bypassing proxies) must be refused
     by a fortified client regardless of its signature: the message shape
     itself is wrong *)
  let secret, _ = Sign.generate (Prng.create ~seed:1) in
  let reply =
    { Pb.request_id = "direct"; response = "ok"; server_index = 0;
      signature = Sign.sign secret "x" }
  in
  let before = Client.rejected client in
  Client.handle client ~src:(Fortress_net.Address.make 0) (Message.Server (Pb.Reply reply));
  Alcotest.(check int) "singly-signed refused" (before + 1) (Client.rejected client)

(* ---- the double signature, checked once per reply value ---- *)

(* HMACs computed while [f] runs, by the profiler's count *)
let hmacs_during f =
  let module Profiler = Fortress_prof.Profiler in
  Profiler.reset ();
  Profiler.enable ();
  Fun.protect
    ~finally:(fun () ->
      Profiler.disable ();
      Profiler.reset ())
    (fun () ->
      f ();
      match
        List.find_opt (fun (e : Profiler.entry) -> e.name = "crypto.hmac") (Profiler.snapshot ())
      with
      | Some e -> e.count
      | None -> 0)

(* A fortified client whose server and three proxy keys the test holds,
   so it can sign as the server and over-sign as each proxy. *)
type keyed = {
  kc_client : Client.t;
  server_secret : Sign.secret_key;
  proxy_secrets : Sign.secret_key array;
  rejections : string list ref;  (** ids of [Reply_rejected] events, latest first *)
}

let keyed_client () =
  let prng = Prng.create ~seed:11 in
  let server_secret, server_key = Sign.generate prng in
  let proxies = Array.init 3 (fun _ -> Sign.generate prng) in
  let record =
    {
      Nameserver.service = "kv";
      proxy_addresses = Array.init 3 (fun i -> Fortress_net.Address.make (10 + i));
      proxy_keys = Array.map snd proxies;
      server_indices = [| 0 |];
      server_keys = [| server_key |];
      replication = Nameserver.Primary_backup;
    }
  in
  let engine = Engine.create ~prng:(Prng.create ~seed:12) () in
  let rejections = ref [] in
  ignore
    (Fortress_obs.Sink.attach (Engine.sink engine) (fun ~time:_ -> function
       | Fortress_obs.Event.Reply_rejected { id } -> rejections := id :: !rejections
       | _ -> ()));
  let client =
    Client.create ~engine ~mode:(Client.Via_proxies record)
      ~self:(Fortress_net.Address.make 20)
      ~send:(fun ~dst:_ _ -> ())
      (Prng.create ~seed:13)
  in
  { kc_client = client; server_secret; proxy_secrets = Array.map fst proxies; rejections }

let server_reply k ~id ~response =
  {
    Pb.request_id = id;
    response;
    server_index = 0;
    signature = Sign.sign k.server_secret (Pb.reply_payload ~id ~response ~server_index:0);
  }

let relay k ~proxy_index reply =
  Message.Client_reply
    {
      reply;
      proxy_index;
      proxy_signature =
        Sign.sign k.proxy_secrets.(proxy_index) (Message.over_sign_payload ~reply ~proxy_index);
    }

let deliver_all k msgs =
  List.iter (Client.handle k.kc_client ~src:(Fortress_net.Address.make 10)) msgs

let test_client_checks_a_server_signature_once () =
  let k = keyed_client () in
  let answers = ref [] in
  let id =
    Client.submit k.kc_client ~cmd:"put k v" ~on_response:(fun r -> answers := r :: !answers)
  in
  let reply = server_reply k ~id ~response:"ok" in
  let relays = List.init 3 (fun i -> relay k ~proxy_index:i reply) in
  Alcotest.(check int) "3 proxy checks and 1 server check" 4
    (hmacs_during (fun () -> deliver_all k relays));
  Alcotest.(check (list string)) "delivered once" [ "ok" ] !answers;
  Alcotest.(check int) "accepted once" 1 (Client.accepted k.kc_client);
  Alcotest.(check int) "nothing rejected" 0 (Client.rejected k.kc_client);
  (* an equal reply in another value is checked again, both signatures *)
  let copy = { reply with Pb.response = reply.Pb.response } in
  let relay_copy = relay k ~proxy_index:1 copy in
  Alcotest.(check int) "another value: both checks" 2
    (hmacs_during (fun () -> deliver_all k [ relay_copy ]));
  Alcotest.(check int) "still nothing rejected" 0 (Client.rejected k.kc_client)

let test_client_rejects_forgeries_after_acceptance () =
  let k = keyed_client () in
  let id = Client.submit k.kc_client ~cmd:"put k v" ~on_response:(fun _ -> ()) in
  let reply = server_reply k ~id ~response:"ok" in
  deliver_all k [ relay k ~proxy_index:0 reply ];
  Alcotest.(check (option string)) "accepted" (Some "ok") (Client.response_for k.kc_client ~id);
  let forger = Prng.create ~seed:99 in
  let expect_rejected what msg =
    let before = Client.rejected k.kc_client in
    k.rejections := [];
    deliver_all k [ msg ];
    Alcotest.(check int) (what ^ ": rejected") (before + 1) (Client.rejected k.kc_client);
    Alcotest.(check (list string)) (what ^ ": Reply_rejected") [ id ] !(k.rejections)
  in
  (* the same content under a forged server signature, over-signed by a
     genuine proxy *)
  expect_rejected "forged server signature"
    (relay k ~proxy_index:1 { reply with Pb.signature = Sign.forge forger });
  (* the reply the client already verified, under a forged proxy signature *)
  expect_rejected "forged proxy signature"
    (Message.Client_reply { reply; proxy_index = 2; proxy_signature = Sign.forge forger });
  Alcotest.(check int) "accepted once" 1 (Client.accepted k.kc_client)

let test_probe_command_shape () =
  List.iter
    (fun (cmd, expected) ->
      Alcotest.(check bool) (Printf.sprintf "%S" cmd) expected (Message.is_probe_command cmd))
    [ ("probe:", true); ("probe:1", true); ("probe", false); ("", false); ("xprobe:1", false) ]

(* ---- proxy detection ---- *)

let test_proxy_blocks_floods () =
  let d =
    make
      ~config:
        {
          Deployment.default_config with
          proxy = { Proxy.default_config with detection_threshold = 5; detection_window = 100.0 };
        }
      ()
  in
  let engine = Deployment.engine d in
  let net = Deployment.network d in
  let attacker = Deployment.new_attacker_address d ~name:"atk" ~handler:(fun ~src:_ _ -> ()) in
  let proxy = (Deployment.proxies d).(0) in
  let paddr = (Deployment.proxy_addresses d).(0) in
  for i = 1 to 20 do
    Network.send net ~src:attacker ~dst:paddr
      (Message.Client_request
         { id = Printf.sprintf "p%d" i; cmd = Printf.sprintf "probe:%d" i; client = attacker })
  done;
  Engine.run ~until:50.0 engine;
  Alcotest.(check bool) "attacker blocked" true (Proxy.is_blocked proxy attacker);
  Alcotest.(check bool) "invalid requests logged" true (Proxy.invalid_observed proxy >= 5);
  Alcotest.(check bool) "flood not fully forwarded" true (Proxy.forwarded proxy < 20)

let test_proxy_window_slides () =
  let d =
    make
      ~config:
        {
          Deployment.default_config with
          proxy = { Proxy.default_config with detection_threshold = 5; detection_window = 10.0 };
        }
      ()
  in
  let engine = Deployment.engine d in
  let net = Deployment.network d in
  let attacker = Deployment.new_attacker_address d ~name:"slow" ~handler:(fun ~src:_ _ -> ()) in
  let proxy = (Deployment.proxies d).(0) in
  let paddr = (Deployment.proxy_addresses d).(0) in
  (* 20 probes, but spaced wider than the window: never enough in-window *)
  for i = 1 to 20 do
    ignore
      (Engine.schedule engine
         ~delay:(float_of_int i *. 15.0)
         (fun () ->
           Network.send net ~src:attacker ~dst:paddr
             (Message.Client_request
                { id = Printf.sprintf "q%d" i; cmd = "probe:1"; client = attacker })))
  done;
  Engine.run ~until:400.0 engine;
  Alcotest.(check bool) "paced attacker evades" false (Proxy.is_blocked proxy attacker);
  Alcotest.(check int) "but every probe was logged" 20 (Proxy.invalid_observed proxy)

let test_proxy_legit_traffic_not_flagged () =
  let d = make () in
  let client = Deployment.new_client d ~name:"c" in
  for i = 1 to 30 do
    ignore (Client.submit client ~cmd:(Printf.sprintf "put k%d v" i) ~on_response:(fun _ -> ()))
  done;
  Engine.run ~until:100.0 (Deployment.engine d);
  Array.iter
    (fun p -> Alcotest.(check int) "no invalid requests" 0 (Proxy.invalid_observed p))
    (Deployment.proxies d);
  Alcotest.(check int) "all served" 30 (Client.accepted client)

(* ---- obfuscation scheduling ---- *)

let test_obfuscation_po_steps () =
  let d = make () in
  let sched = Deployment.obfuscate d ~mode:Obfuscation.PO ~period:10.0 in
  let epoch0 = Instance.epoch (Deployment.server_instances d).(0) in
  Engine.run ~until:55.0 (Deployment.engine d);
  Alcotest.(check int) "5 boundaries" 5 (Obfuscation.steps_completed sched);
  Alcotest.(check int) "5 rekeys" (epoch0 + 5) (Instance.epoch (Deployment.server_instances d).(0))

let test_obfuscation_so_keeps_keys () =
  let d = make () in
  let key0 = Instance.key (Deployment.server_instances d).(0) in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.SO ~period:10.0);
  Engine.run ~until:55.0 (Deployment.engine d);
  Alcotest.(check int) "key stable under SO" key0 (Instance.key (Deployment.server_instances d).(0))

let test_obfuscation_detach () =
  let d = make () in
  let sched = Deployment.obfuscate d ~mode:Obfuscation.PO ~period:10.0 in
  Engine.run ~until:25.0 (Deployment.engine d);
  Obfuscation.detach sched;
  Engine.run ~until:100.0 (Deployment.engine d);
  Alcotest.(check int) "no boundaries after detach" 2 (Obfuscation.steps_completed sched)

let test_obfuscation_evicts_intruder () =
  let d = make () in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:10.0);
  Deployment.compromise_server d 1;
  Alcotest.(check bool) "compromised" true (Deployment.system_compromised d);
  Engine.run ~until:15.0 (Deployment.engine d);
  Alcotest.(check bool) "evicted at the boundary" false (Deployment.system_compromised d)

(* Each deployment keeps one daemon: the one fault plans stall and the
   defender's knobs turn. *)
let test_one_daemon_per_deployment () =
  let d = make () in
  ignore (Deployment.obfuscate d ~mode:Obfuscation.PO ~period:10.0);
  Alcotest.check_raises "fortress"
    (Invalid_argument "Deployment.obfuscate: a daemon is already running") (fun () ->
      ignore (Deployment.obfuscate d ~mode:Obfuscation.SO ~period:10.0));
  let s = Smr_deployment.create Smr_deployment.default_config in
  ignore (Smr_deployment.obfuscate s ~mode:Obfuscation.PO ~period:10.0);
  Alcotest.check_raises "smr"
    (Invalid_argument "Smr_deployment.obfuscate: a daemon is already running") (fun () ->
      ignore (Smr_deployment.obfuscate s ~mode:Obfuscation.PO ~period:10.0))

let test_mode_strings () =
  Alcotest.(check bool) "po" true (Obfuscation.mode_of_string "po" = Some Obfuscation.PO);
  Alcotest.(check bool) "so" true (Obfuscation.mode_of_string "so" = Some Obfuscation.SO);
  Alcotest.(check bool) "junk" true (Obfuscation.mode_of_string "x" = None)

(* ---- S1 mode (np = 0) ---- *)

let test_unfortified_s1_direct_clients () =
  let d = make ~config:{ Deployment.default_config with np = 0 } () in
  let client = Deployment.new_client d ~name:"c" in
  let response = ref "" in
  ignore (Client.submit client ~cmd:"put k v" ~on_response:(fun r -> response := r));
  Engine.run ~until:50.0 (Deployment.engine d);
  Alcotest.(check string) "served directly" "ok" !response

let test_unfortified_s1_compromise_condition () =
  let d = make ~config:{ Deployment.default_config with np = 0 } () in
  Deployment.compromise_server d 2;
  Alcotest.(check bool) "any server loss compromises S1" true (Deployment.system_compromised d)

(* ---- SMR deployment (S0) ---- *)

let test_smr_deployment_basic () =
  let d = Smr_deployment.create Smr_deployment.default_config in
  let client = Smr_deployment.new_client d ~name:"c" in
  let response = ref "" in
  ignore (Smr_deployment.submit client ~cmd:"put k v" ~on_response:(fun r -> response := r));
  Engine.run ~until:100.0 (Smr_deployment.engine d);
  Alcotest.(check string) "voted response" "ok" !response;
  Alcotest.(check int) "accepted" 1 (Smr_deployment.client_accepted client)

let test_smr_deployment_diverse_keys () =
  let d = Smr_deployment.create Smr_deployment.default_config in
  let keys = Array.to_list (Array.map Instance.key (Smr_deployment.instances d)) in
  Alcotest.(check int) "all keys distinct" 4 (List.length (List.sort_uniq compare keys))

let test_smr_deployment_batches () =
  let d = Smr_deployment.create Smr_deployment.default_config in
  let batches = Smr_deployment.batches d in
  Alcotest.(check int) "ceil(n/f) batches" 4 (List.length batches);
  List.iter (fun b -> Alcotest.(check int) "at most f" 1 (List.length b)) batches;
  let all = List.concat batches |> List.sort compare in
  Alcotest.(check (list int)) "covers all replicas" [ 0; 1; 2; 3 ] all

let test_smr_deployment_batched_recovery_keeps_service_up () =
  let d = Smr_deployment.create Smr_deployment.default_config in
  ignore (Smr_deployment.obfuscate d ~mode:Obfuscation.PO ~period:200.0);
  let client = Smr_deployment.new_client d ~name:"c" in
  let served = ref 0 in
  (* traffic across several recovery cycles *)
  for i = 0 to 9 do
    ignore
      (Engine.schedule (Smr_deployment.engine d)
         ~delay:(float_of_int i *. 90.0)
         (fun () ->
           ignore
             (Smr_deployment.submit client ~cmd:"incr"
                ~on_response:(fun _ -> incr served))))
  done;
  Engine.run ~until:1500.0 (Smr_deployment.engine d);
  Alcotest.(check bool)
    (Printf.sprintf "service stayed available across recoveries (%d/10)" !served)
    true (!served >= 8)

let test_smr_deployment_compromise_condition () =
  let d = Smr_deployment.create Smr_deployment.default_config in
  Smr_deployment.compromise d 0;
  Alcotest.(check bool) "f intrusions tolerated" false (Smr_deployment.system_compromised d);
  Smr_deployment.compromise d 2;
  Alcotest.(check bool) "f+1 intrusions fatal" true (Smr_deployment.system_compromised d)

(* The SMR client emits the workload plane's event pair itself: submitted
   once its fan-out has left, completed just before the callback, once
   per request. *)
let test_smr_client_request_events () =
  let d = Smr_deployment.create Smr_deployment.default_config in
  let log = ref [] in
  let note x = log := x :: !log in
  Fortress_net.Network.set_interceptor (Smr_deployment.network d)
    (Some
       (fun ~src:_ ~dst:_ _ ->
         note "send";
         Fortress_net.Network.Pass));
  ignore
    (Fortress_obs.Sink.attach
       (Engine.sink (Smr_deployment.engine d))
       (fun ~time:_ -> function
         | Fortress_obs.Event.Request_submitted _ -> note "submitted"
         | Fortress_obs.Event.Request_completed _ -> note "completed"
         | _ -> ()));
  let client = Smr_deployment.new_client d ~name:"c" in
  ignore (Smr_deployment.submit client ~cmd:"put k v" ~on_response:(fun _ -> note "response"));
  Engine.run ~until:100.0 (Smr_deployment.engine d);
  let log = List.rev !log in
  Alcotest.(check (list string)) "submitted after the four-replica fan-out"
    [ "send"; "send"; "send"; "send"; "submitted" ]
    (List.filteri (fun i _ -> i < 5) log);
  Alcotest.(check (list string)) "one completion, then the callback"
    [ "submitted"; "completed"; "response" ]
    (List.filter (fun x -> x <> "send") log)

let test_smr_deployment_rekey_batch_restores_state () =
  let d = Smr_deployment.create { Smr_deployment.default_config with seed = 3 } in
  let client = Smr_deployment.new_client d ~name:"c" in
  let done_ = ref 0 in
  for _ = 1 to 3 do
    ignore (Smr_deployment.submit client ~cmd:"put a b" ~on_response:(fun _ -> incr done_))
  done;
  Engine.run ~until:100.0 (Smr_deployment.engine d);
  let key_before = Instance.key (Smr_deployment.instances d).(3) in
  Smr_deployment.rekey_batch d [ 3 ];
  Engine.run ~until:200.0 (Smr_deployment.engine d);
  Alcotest.(check bool) "fresh key" true (Instance.key (Smr_deployment.instances d).(3) <> key_before);
  let module Smr = Fortress_replication.Smr in
  let replicas = Smr_deployment.replicas d in
  Alcotest.(check bool) "transfer finished" false (Smr.in_state_transfer replicas.(3));
  Alcotest.(check string) "state restored from peers"
    (Smr.service_digest replicas.(0))
    (Smr.service_digest replicas.(3))

(* ---- client retries over lossy links ---- *)

let test_client_retries_through_loss () =
  let d =
    make
      ~config:
        {
          Deployment.default_config with
          latency = Fortress_net.Latency.lossy (Fortress_net.Latency.constant 0.5) ~drop:0.4;
          seed = 6;
        }
      ()
  in
  let client = Deployment.new_client d ~name:"lossy-client" in
  let served = ref 0 in
  for i = 1 to 10 do
    ignore
      (Client.submit client
         ~cmd:(Printf.sprintf "put k%d v" i)
         ~on_response:(fun _ -> incr served))
  done;
  Engine.run ~until:500.0 (Deployment.engine d);
  Alcotest.(check int) "all requests eventually served" 10 !served

let test_client_retry_answers_from_proxy_cache () =
  (* lose the first submission entirely via a partition, heal, and let the
     retry be answered *)
  let d = make ~config:{ Deployment.default_config with seed = 8 } () in
  let engine = Deployment.engine d in
  let net = Deployment.network d in
  let client = Deployment.new_client d ~name:"c" in
  let client_addr =
    (* the client registered last; find its address by name *)
    List.find
      (fun a -> Network.name net a = "c")
      (Network.nodes net)
  in
  Array.iter (fun p -> Network.partition net client_addr p) (Deployment.proxy_addresses d);
  let served = ref "" in
  ignore (Client.submit client ~cmd:"put k v" ~on_response:(fun r -> served := r));
  Engine.run ~until:10.0 engine;
  Alcotest.(check string) "still unanswered" "" !served;
  Network.heal_all net;
  Engine.run ~until:200.0 engine;
  Alcotest.(check string) "retry succeeded" "ok" !served;
  Alcotest.(check bool) "retries were sent" true (Client.retries_sent client >= 1)

let test_client_no_duplicate_callback_on_retry () =
  let d = make ~config:{ Deployment.default_config with seed = 9 } () in
  let client = Deployment.new_client d ~name:"c" in
  let calls = ref 0 in
  ignore (Client.submit client ~cmd:"put k v" ~on_response:(fun _ -> incr calls));
  (* run long enough for several retry periods to elapse *)
  Engine.run ~until:300.0 (Deployment.engine d);
  Alcotest.(check int) "callback fired exactly once" 1 !calls

(* ---- FORTRESS over an SMR tier ---- *)

let test_smr_fortress_end_to_end () =
  let f = Smr_fortress.create Smr_fortress.default_config in
  let client = Smr_fortress.new_client f ~name:"c" in
  let response = ref "" in
  ignore (Smr_fortress.submit client ~cmd:"put k v" ~on_response:(fun r -> response := r));
  Engine.run ~until:100.0 (Smr_fortress.engine f);
  Alcotest.(check string) "served through proxy vote" "ok" !response;
  Alcotest.(check int) "accepted once" 1 (Smr_fortress.client_accepted client);
  Alcotest.(check bool) "a proxy relayed" true
    (Smr_fortress.proxy_relayed f 0 + Smr_fortress.proxy_relayed f 1
     + Smr_fortress.proxy_relayed f 2
    > 0)

let test_smr_fortress_masks_one_intrusion () =
  (* the crucial difference from the PB tier: one compromised replica is
     masked by the proxies' f+1 vote, so the client still gets the honest
     answer *)
  let f = Smr_fortress.create Smr_fortress.default_config in
  Smr_deployment.compromise (Smr_fortress.tier f) 1;
  Alcotest.(check bool) "one intrusion tolerated" false (Smr_fortress.system_compromised f);
  let client = Smr_fortress.new_client f ~name:"c" in
  let response = ref "" in
  ignore (Smr_fortress.submit client ~cmd:"put k v" ~on_response:(fun r -> response := r));
  Engine.run ~until:100.0 (Smr_fortress.engine f);
  Alcotest.(check string) "honest answer despite the intruder" "ok" !response

(* X1 inherits the tier's crash faults: with f = 1 a crashed replica is
   tolerated, and the proxies still vote f + 1 matching replies through *)
let test_smr_fortress_crashed_replica () =
  let f = Smr_fortress.create Smr_fortress.default_config in
  Smr_deployment.crash_replica (Smr_fortress.tier f) 2;
  let client = Smr_fortress.new_client f ~name:"c" in
  let response = ref "" in
  ignore (Smr_fortress.submit client ~cmd:"put k v" ~on_response:(fun r -> response := r));
  Engine.run ~until:100.0 (Smr_fortress.engine f);
  Alcotest.(check string) "served with a replica down" "ok" !response;
  Alcotest.(check int) "accepted once" 1 (Smr_fortress.client_accepted client)

let test_smr_fortress_two_intrusions_fatal () =
  let f = Smr_fortress.create Smr_fortress.default_config in
  Smr_deployment.compromise (Smr_fortress.tier f) 0;
  Smr_deployment.compromise (Smr_fortress.tier f) 1;
  Alcotest.(check bool) "f+1 intrusions compromise S0-style" true
    (Smr_fortress.system_compromised f)

let test_smr_fortress_proxy_detection () =
  let f =
    Smr_fortress.create { Smr_fortress.default_config with proxy_detection_threshold = 5 }
  in
  let engine = Smr_fortress.engine f in
  let client = Smr_fortress.new_client f ~name:"atk-client" in
  ignore client;
  (* drive probes straight at proxy 0 from a registered address *)
  let net_probe i =
    ignore
      (Engine.schedule engine ~delay:(float_of_int i) (fun () ->
           ignore
             (Smr_fortress.submit client
                ~cmd:(Printf.sprintf "probe:%d" i)
                ~on_response:(fun _ -> ()))))
  in
  for i = 1 to 15 do
    net_probe i
  done;
  Engine.run ~until:100.0 engine;
  Alcotest.(check bool) "probes logged" true (Smr_fortress.proxy_invalid_observed f 0 >= 5)

(* np + n keys in use: a proxy never shares a replica's key, at start-up
   or after a proxy rekey, even in a key space small enough to clash *)
let test_smr_fortress_diverse_server_keys () =
  let distinct f =
    let keys =
      Array.to_list (Array.map Instance.key (Smr_deployment.instances (Smr_fortress.tier f)))
      @ Array.to_list (Array.map Instance.key (Smr_fortress.proxy_instances f))
    in
    List.length (List.sort_uniq compare keys)
  in
  for seed = 0 to 99 do
    let f =
      Smr_fortress.create
        {
          Smr_fortress.default_config with
          tier = { Smr_deployment.default_config with keyspace = Keyspace.of_size 64; seed };
        }
    in
    Alcotest.(check int) (Printf.sprintf "seed %d: all seven keys distinct" seed) 7 (distinct f);
    Smr_fortress.rekey_proxies f;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: still seven after a proxy rekey" seed)
      7 (distinct f)
  done

let test_smr_fortress_batched_obfuscation () =
  let f =
    Smr_fortress.create
      {
        Smr_fortress.default_config with
        tier = { Smr_deployment.default_config with seed = 11 };
      }
  in
  Smr_fortress.obfuscate f ~mode:Obfuscation.PO ~period:200.0;
  let client = Smr_fortress.new_client f ~name:"c" in
  let served = ref 0 in
  for i = 0 to 5 do
    ignore
      (Engine.schedule (Smr_fortress.engine f)
         ~delay:(float_of_int i *. 150.0)
         (fun () ->
           ignore
             (Smr_fortress.submit client
                ~cmd:(Printf.sprintf "put k%d v" i)
                ~on_response:(fun _ -> incr served))))
  done;
  Engine.run ~until:1200.0 (Smr_fortress.engine f);
  Alcotest.(check bool)
    (Printf.sprintf "service available through recovery cycles (%d/6)" !served)
    true (!served >= 5);
  (* proxies rotated keys at each of the boundaries *)
  Alcotest.(check bool) "proxy epochs advanced" true
    (Instance.epoch (Smr_fortress.proxy_instances f).(0) >= 5)

let () =
  Alcotest.run "fortress_core"
    [
      ( "nameserver",
        [
          Alcotest.test_case "publish and lookup" `Quick test_nameserver_publish_lookup;
          Alcotest.test_case "client view hides servers" `Quick
            test_nameserver_client_view_hides_servers;
          Alcotest.test_case "validation" `Quick test_nameserver_validation;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "doubly-signed flow" `Quick test_end_to_end_doubly_signed;
          Alcotest.test_case "multiple clients" `Quick test_multiple_clients;
          Alcotest.test_case "key layout" `Quick test_keys_layout;
          Alcotest.test_case "rekey preserves layout" `Quick test_rekey_preserves_layout;
          Alcotest.test_case "recover keeps keys" `Quick test_recover_keeps_keys;
          Alcotest.test_case "compromise bookkeeping" `Quick test_compromise_bookkeeping;
          Alcotest.test_case "compromised server poisons" `Quick
            test_compromised_server_poisons_but_client_detects_nothing;
          Alcotest.test_case "compromised proxy availability only" `Quick
            test_compromised_proxy_is_availability_only;
          Alcotest.test_case "forged proxy signature rejected" `Quick
            test_client_rejects_forged_proxy_signature;
          Alcotest.test_case "server signature checked once per reply value" `Quick
            test_client_checks_a_server_signature_once;
          Alcotest.test_case "forgeries rejected after acceptance" `Quick
            test_client_rejects_forgeries_after_acceptance;
          Alcotest.test_case "probe command shape" `Quick test_probe_command_shape;
          Alcotest.test_case "singly-signed refused when fortified" `Quick
            test_client_rejects_singly_signed_when_fortified;
        ] );
      ( "proxy-detection",
        [
          Alcotest.test_case "flood blocked" `Quick test_proxy_blocks_floods;
          Alcotest.test_case "sliding window" `Quick test_proxy_window_slides;
          Alcotest.test_case "legit traffic clean" `Quick test_proxy_legit_traffic_not_flagged;
        ] );
      ( "obfuscation",
        [
          Alcotest.test_case "po steps and epochs" `Quick test_obfuscation_po_steps;
          Alcotest.test_case "so keeps keys" `Quick test_obfuscation_so_keeps_keys;
          Alcotest.test_case "detach" `Quick test_obfuscation_detach;
          Alcotest.test_case "evicts intruder" `Quick test_obfuscation_evicts_intruder;
          Alcotest.test_case "one daemon per deployment" `Quick test_one_daemon_per_deployment;
          Alcotest.test_case "mode strings" `Quick test_mode_strings;
        ] );
      ( "s1-mode",
        [
          Alcotest.test_case "direct clients" `Quick test_unfortified_s1_direct_clients;
          Alcotest.test_case "compromise condition" `Quick test_unfortified_s1_compromise_condition;
        ] );
      ( "client-retries",
        [
          Alcotest.test_case "through message loss" `Quick test_client_retries_through_loss;
          Alcotest.test_case "answered from proxy cache" `Quick
            test_client_retry_answers_from_proxy_cache;
          Alcotest.test_case "no duplicate callback" `Quick test_client_no_duplicate_callback_on_retry;
        ] );
      ( "smr-fortress",
        [
          Alcotest.test_case "end to end" `Quick test_smr_fortress_end_to_end;
          Alcotest.test_case "masks one intrusion" `Quick test_smr_fortress_masks_one_intrusion;
          Alcotest.test_case "tolerates a crashed replica" `Quick
            test_smr_fortress_crashed_replica;
          Alcotest.test_case "two intrusions fatal" `Quick test_smr_fortress_two_intrusions_fatal;
          Alcotest.test_case "proxy detection" `Quick test_smr_fortress_proxy_detection;
          Alcotest.test_case "diverse keys" `Quick test_smr_fortress_diverse_server_keys;
          Alcotest.test_case "batched obfuscation" `Slow test_smr_fortress_batched_obfuscation;
        ] );
      ( "smr-deployment",
        [
          Alcotest.test_case "basic vote" `Quick test_smr_deployment_basic;
          Alcotest.test_case "diverse keys" `Quick test_smr_deployment_diverse_keys;
          Alcotest.test_case "batches" `Quick test_smr_deployment_batches;
          Alcotest.test_case "batched recovery availability" `Slow
            test_smr_deployment_batched_recovery_keeps_service_up;
          Alcotest.test_case "compromise condition" `Quick test_smr_deployment_compromise_condition;
          Alcotest.test_case "client request events in order" `Quick
            test_smr_client_request_events;
          Alcotest.test_case "rekey batch restores state" `Quick
            test_smr_deployment_rekey_batch_restores_state;
        ] );
    ]
