open Fortress_net
module Engine = Fortress_sim.Engine

type msg = Ping of int | Pong of int

let setup ?latency () =
  let engine = Engine.create ~prng:(Fortress_util.Prng.create ~seed:1) () in
  let net = Network.create ?latency engine in
  (engine, net)

let register_sink net name log =
  Network.register net ~name ~handler:(fun ~src msg -> log := (src, msg) :: !log)

(* ---- Network ---- *)

let test_basic_delivery () =
  let engine, net = setup () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  match !log with
  | [ (src, Ping 1) ] -> Alcotest.(check bool) "src" true (Address.equal src a)
  | _ -> Alcotest.fail "expected one ping"

let test_latency_applied () =
  let engine, net = setup ~latency:(Latency.constant 3.0) () in
  let arrival = ref 0.0 in
  let a = register_sink net "a" (ref []) in
  let b =
    Network.register net ~name:"b" ~handler:(fun ~src:_ _ -> arrival := Engine.now engine)
  in
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "constant latency" 3.0 !arrival

let test_down_node_loses_messages () =
  let engine, net = setup () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.set_down net b;
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length !log);
  Alcotest.(check int) "counted dropped" 1 (Network.dropped net)

let test_crash_voids_in_flight () =
  let engine, net = setup ~latency:(Latency.constant 5.0) () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.send net ~src:a ~dst:b (Ping 1);
  (* crash while the message is in flight, then recover before delivery *)
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         Network.set_down net b;
         Network.set_up net b));
  Engine.run engine;
  Alcotest.(check int) "in-flight message died with the crash" 0 (List.length !log)

let test_recovery_receives_again () =
  let engine, net = setup () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.set_down net b;
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Network.set_up net b;
  Network.send net ~src:a ~dst:b (Ping 2);
  Engine.run engine;
  (match !log with
  | [ (_, Ping 2) ] -> ()
  | _ -> Alcotest.fail "expected only the post-recovery ping");
  Alcotest.(check bool) "up again" true (Network.is_up net b)

let test_partition_and_heal () =
  let engine, net = setup () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.partition net a b;
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "partitioned" 0 (List.length !log);
  Network.heal net a b;
  Network.send net ~src:a ~dst:b (Ping 2);
  Engine.run engine;
  Alcotest.(check int) "healed" 1 (List.length !log)

let test_partition_symmetric () =
  let engine, net = setup () in
  let la = ref [] and lb = ref [] in
  let a = register_sink net "a" la in
  let b = register_sink net "b" lb in
  Network.partition net b a;
  Network.send net ~src:a ~dst:b (Ping 1);
  Network.send net ~src:b ~dst:a (Pong 1);
  Engine.run engine;
  Alcotest.(check int) "a->b blocked" 0 (List.length !lb);
  Alcotest.(check int) "b->a blocked" 0 (List.length !la)

let test_multicast () =
  let engine, net = setup () in
  let lb = ref [] and lc = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" lb in
  let c = register_sink net "c" lc in
  Network.multicast net ~src:a ~dsts:[ b; c ] (Ping 7);
  Engine.run engine;
  Alcotest.(check int) "b got it" 1 (List.length !lb);
  Alcotest.(check int) "c got it" 1 (List.length !lc);
  Alcotest.(check int) "delivered count" 2 (Network.delivered net)

let test_lossy_link () =
  let engine, net = setup ~latency:(Latency.lossy (Latency.constant 1.0) ~drop:0.5) () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  for _ = 1 to 1000 do
    Network.send net ~src:a ~dst:b (Ping 0)
  done;
  Engine.run engine;
  let got = List.length !log in
  Alcotest.(check bool) "roughly half lost" true (got > 400 && got < 600)

let test_per_link_latency () =
  let engine, net = setup ~latency:(Latency.constant 1.0) () in
  let t_b = ref 0.0 and t_c = ref 0.0 in
  let a = register_sink net "a" (ref []) in
  let b = Network.register net ~name:"b" ~handler:(fun ~src:_ _ -> t_b := Engine.now engine) in
  let c = Network.register net ~name:"c" ~handler:(fun ~src:_ _ -> t_c := Engine.now engine) in
  Network.set_link_latency net a c (Latency.constant 10.0);
  Network.send net ~src:a ~dst:b (Ping 0);
  Network.send net ~src:a ~dst:c (Ping 0);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "default link" 1.0 !t_b;
  Alcotest.(check (float 1e-9)) "overridden link" 10.0 !t_c

let test_unknown_destination () =
  let _, net = setup () in
  let a = register_sink net "a" (ref []) in
  Alcotest.check_raises "unknown dst" (Invalid_argument "Network: unknown address n99")
    (fun () -> Network.send net ~src:a ~dst:(Address.make 99) (Ping 0))

(* the node table is an array with spare slots: an id past the last
   registered one, inside its capacity or not, or a negative one, is as
   unknown as ever *)
let test_unregistered_ids () =
  let _, net = setup () in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" (ref []) in
  List.iter
    (fun id ->
      let msg = Printf.sprintf "Network: unknown address n%d" id in
      Alcotest.check_raises ("dst " ^ msg) (Invalid_argument msg) (fun () ->
          Network.send net ~src:a ~dst:(Address.make id) (Ping 0));
      Alcotest.check_raises ("src " ^ msg) (Invalid_argument msg) (fun () ->
          Network.send net ~src:(Address.make id) ~dst:b (Ping 0)))
    [ -1; -8; 2; 3; 7; 8; max_int ];
  Alcotest.(check (list string)) "registered ids listed" [ "n0"; "n1" ]
    (List.map Address.to_string (Network.nodes net))

let test_set_handler_swap () =
  let engine, net = setup () in
  let first = ref 0 and second = ref 0 in
  let a = register_sink net "a" (ref []) in
  let b = Network.register net ~name:"b" ~handler:(fun ~src:_ _ -> incr first) in
  Network.send net ~src:a ~dst:b (Ping 0);
  Engine.run engine;
  Network.set_handler net b (fun ~src:_ _ -> incr second);
  Network.send net ~src:a ~dst:b (Ping 0);
  Engine.run engine;
  Alcotest.(check int) "old handler once" 1 !first;
  Alcotest.(check int) "new handler once" 1 !second

let test_node_listing () =
  let _, net = setup () in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" (ref []) in
  Alcotest.(check int) "two nodes" 2 (List.length (Network.nodes net));
  Alcotest.(check string) "names" "a" (Network.name net a);
  Alcotest.(check string) "names" "b" (Network.name net b)

let test_address_collections () =
  let a = Address.make 1 and b = Address.make 2 in
  let set = Address.Set.of_list [ a; b; a ] in
  Alcotest.(check int) "set dedups" 2 (Address.Set.cardinal set);
  let map = Address.Map.(empty |> add a "one" |> add b "two") in
  Alcotest.(check (option string)) "map lookup" (Some "one") (Address.Map.find_opt a map);
  Alcotest.(check string) "printable" "n1" (Address.to_string a)

let test_latency_sampling () =
  let prng = Fortress_util.Prng.create ~seed:3 in
  (* constant link: exact delay, never dropped *)
  for _ = 1 to 100 do
    match Latency.sample (Latency.constant 2.5) prng with
    | Some d -> Alcotest.(check (float 1e-12)) "constant" 2.5 d
    | None -> Alcotest.fail "constant link must not drop"
  done;
  (* jittered link: delay in [base, base + jitter) *)
  let jittered = { Latency.base = 1.0; jitter = 0.5; drop = 0.0 } in
  for _ = 1 to 1000 do
    match Latency.sample jittered prng with
    | Some d -> Alcotest.(check bool) "within jitter band" true (d >= 1.0 && d < 1.5)
    | None -> Alcotest.fail "lossless link must not drop"
  done;
  (* fully lossy link: always dropped *)
  let black_hole = Latency.lossy (Latency.constant 1.0) ~drop:1.0 in
  Alcotest.(check bool) "always dropped" true (Latency.sample black_hole prng = None)

(* ---- fault-injection interceptor points ---- *)

let ping_value = function Ping i -> i | Pong i -> i

let test_zero_latency_ordering () =
  let engine, net = setup ~latency:(Latency.constant 0.0) () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  for i = 1 to 8 do
    Network.send net ~src:a ~dst:b (Ping i)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo at equal timestamps" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.rev_map (fun (_, m) -> ping_value m) !log)

let test_interceptor_pass_transparent () =
  let engine, net = setup ~latency:(Latency.constant 2.0) () in
  let arrival = ref nan in
  let a = register_sink net "a" (ref []) in
  let b =
    Network.register net ~name:"b" ~handler:(fun ~src:_ _ -> arrival := Engine.now engine)
  in
  Network.set_interceptor net (Some (fun ~src:_ ~dst:_ _ -> Network.Pass));
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "same latency as no interceptor" 2.0 !arrival;
  Alcotest.(check int) "delivered once" 1 (Network.delivered net)

let test_interceptor_drop_counted () =
  let engine, net = setup () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.set_interceptor net (Some (fun ~src:_ ~dst:_ _ -> Network.Drop "fault:drop"));
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length !log);
  Alcotest.(check int) "counted as dropped" 1 (Network.dropped net)

let test_duplicate_then_drop () =
  let engine, net = setup ~latency:(Latency.constant 1.0) () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  let n = ref 0 in
  Network.set_interceptor net
    (Some
       (fun ~src:_ ~dst:_ _ ->
         incr n;
         if !n = 1 then
           Network.Deliver
             [
               { Network.extra_delay = 0.0; corrupt = false };
               { Network.extra_delay = 1.0; corrupt = false };
             ]
         else Network.Drop "fault:drop"));
  Network.send net ~src:a ~dst:b (Ping 1);
  Network.send net ~src:a ~dst:b (Ping 2);
  Engine.run engine;
  Alcotest.(check (list int)) "first duplicated, second lost" [ 1; 1 ]
    (List.rev_map (fun (_, m) -> ping_value m) !log);
  Alcotest.(check int) "two deliveries" 2 (Network.delivered net);
  Alcotest.(check int) "one drop" 1 (Network.dropped net)

let test_deliver_to_crashed_is_void () =
  let engine, net = setup ~latency:(Latency.constant 1.0) () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.set_interceptor net
    (Some
       (fun ~src:_ ~dst:_ _ ->
         Network.Deliver [ { Network.extra_delay = 5.0; corrupt = false } ]));
  Network.send net ~src:a ~dst:b (Ping 1);
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> Network.set_down net b));
  Engine.run engine;
  Alcotest.(check int) "held-back delivery voided by the crash" 0 (List.length !log);
  Alcotest.(check int) "counted as dropped" 1 (Network.dropped net)

let test_corrupt_without_corrupter_drops () =
  let engine, net = setup () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.set_interceptor net
    (Some
       (fun ~src:_ ~dst:_ _ ->
         Network.Deliver [ { Network.extra_delay = 0.0; corrupt = true } ]));
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "mangled frame lost" 0 (List.length !log);
  Alcotest.(check int) "counted as dropped" 1 (Network.dropped net)

let test_corrupter_applied () =
  let engine, net = setup () in
  let log = ref [] in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.set_interceptor net
    (Some
       (fun ~src:_ ~dst:_ _ ->
         Network.Deliver [ { Network.extra_delay = 0.0; corrupt = true } ]));
  Network.set_corrupter net (Some (function Ping i -> Some (Ping (i + 100)) | Pong _ -> None));
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check (list int)) "payload mangled in flight" [ 101 ]
    (List.rev_map (fun (_, m) -> ping_value m) !log)

let test_partition_beats_interceptor_then_heals () =
  let engine, net = setup () in
  let log = ref [] in
  let consulted = ref 0 in
  let a = register_sink net "a" (ref []) in
  let b = register_sink net "b" log in
  Network.set_interceptor net
    (Some
       (fun ~src:_ ~dst:_ _ ->
         incr consulted;
         Network.Pass));
  Network.partition net a b;
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "partition drop precedes the interceptor" 0 !consulted;
  Network.heal_all net;
  Network.send net ~src:a ~dst:b (Ping 2);
  Engine.run engine;
  Alcotest.(check (list int)) "delivered after heal" [ 2 ]
    (List.rev_map (fun (_, m) -> ping_value m) !log);
  Alcotest.(check int) "interceptor back in the path" 1 !consulted

let test_unknown_source () =
  let _, net = setup () in
  let a = register_sink net "a" (ref []) in
  Alcotest.check_raises "unknown src" (Invalid_argument "Network: unknown address n42")
    (fun () -> Network.send net ~src:(Address.make 42) ~dst:a (Ping 0))

(* ---- Conn: the crash-observation channel ---- *)

let test_conn_roundtrip () =
  let engine = Engine.create () in
  let server_got = ref [] and client_got = ref [] in
  let conn =
    Conn.establish engine ~latency:1.0
      ~on_server_receive:(fun c payload ->
        server_got := payload :: !server_got;
        Conn.server_send c ("echo:" ^ payload))
      ~on_client_receive:(fun _ payload -> client_got := payload :: !client_got)
      ~on_client_close:(fun () -> ())
  in
  Conn.client_send conn "hello";
  Engine.run engine;
  Alcotest.(check (list string)) "server" [ "hello" ] !server_got;
  Alcotest.(check (list string)) "client" [ "echo:hello" ] !client_got

let test_conn_close_observed () =
  let engine = Engine.create () in
  let observed_at = ref nan in
  let conn =
    Conn.establish engine ~latency:2.0
      ~on_server_receive:(fun c _ -> Conn.close_server c)
      ~on_client_receive:(fun _ _ -> ())
      ~on_client_close:(fun () -> observed_at := Engine.now engine)
  in
  Conn.client_send conn "probe";
  Engine.run engine;
  (* send takes 2.0, close notification another 2.0 *)
  Alcotest.(check (float 1e-9)) "client observes crash after latency" 4.0 !observed_at;
  Alcotest.(check bool) "closed" false (Conn.is_open conn)

let test_conn_messages_lost_after_close () =
  let engine = Engine.create () in
  let server_got = ref 0 in
  let conn =
    Conn.establish engine ~latency:1.0
      ~on_server_receive:(fun _ _ -> incr server_got)
      ~on_client_receive:(fun _ _ -> ())
      ~on_client_close:(fun () -> ())
  in
  Conn.client_send conn "one";
  Conn.close_server conn;
  Conn.client_send conn "two";
  Engine.run engine;
  Alcotest.(check int) "nothing delivered after close" 0 !server_got

let test_conn_close_idempotent () =
  let engine = Engine.create () in
  let closes = ref 0 in
  let conn =
    Conn.establish engine
      ~on_server_receive:(fun _ _ -> ())
      ~on_client_receive:(fun _ _ -> ())
      ~on_client_close:(fun () -> incr closes)
  in
  Conn.close_server conn;
  Conn.close_server conn;
  Engine.run engine;
  Alcotest.(check int) "one notification" 1 !closes

let test_conn_client_close_notifies_server () =
  let engine = Engine.create () in
  let server_saw_close = ref false in
  let conn =
    Conn.establish engine
      ~on_server_receive:(fun _ _ -> ())
      ~on_client_receive:(fun _ _ -> ())
      ~on_client_close:(fun () -> ())
      ~on_server_close:(fun () -> server_saw_close := true)
  in
  Conn.close_client conn;
  Engine.run engine;
  Alcotest.(check bool) "server notified" true !server_saw_close

(* ---- causal message spans ---- *)

let collect_spans engine =
  let spans = ref [] in
  ignore
    (Fortress_obs.Sink.attach (Engine.sink engine) (fun ~time:_ ev ->
         match ev with
         | Fortress_obs.Event.Span_finished { id; name; parent; attrs; _ } ->
             spans := (id, name, parent, attrs) :: !spans
         | _ -> ()));
  spans

let test_causal_send_deliver_parentage () =
  let engine, net = setup ~latency:(Latency.constant 2.0) () in
  let spans = collect_spans engine in
  let c = Engine.attach_causal ~trace_id:5 engine in
  let a = register_sink net "alpha" (ref []) in
  let log = ref [] in
  let b = register_sink net "beta" log in
  let root = Fortress_obs.Causal.span_of c "client.request" in
  Fortress_obs.Causal.with_ambient c root (fun () ->
      Network.send net ~src:a ~dst:b (Ping 1));
  Engine.run engine;
  Fortress_obs.Causal.finish c root;
  Alcotest.(check int) "message delivered" 1 (List.length !log);
  let find name =
    match List.find_opt (fun (_, n, _, _) -> n = name) !spans with
    | Some s -> s
    | None -> Alcotest.failf "no %s span" name
  in
  let send_id, _, send_parent, send_attrs = find "net.send" in
  let _, _, deliver_parent, deliver_attrs = find "net.deliver" in
  let root_id, _, _, _ = find "client.request" in
  Alcotest.(check (option int)) "send parents to the ambient request" (Some root_id)
    send_parent;
  Alcotest.(check (option int)) "deliver parents to its send" (Some send_id) deliver_parent;
  Alcotest.(check bool) "ids in the trace-id block" true
    (send_id > 5 * Fortress_obs.Causal.id_stride);
  Alcotest.(check (option string)) "send carries src node" (Some "alpha")
    (List.assoc_opt "node" send_attrs);
  Alcotest.(check (option string)) "send carries dst node" (Some "beta")
    (List.assoc_opt "dst" send_attrs);
  Alcotest.(check (option string)) "deliver carries dst node" (Some "beta")
    (List.assoc_opt "node" deliver_attrs)

let test_causal_nested_sends_chain () =
  (* beta's handler sends onward to gamma while the deliver span is
     ambient, so gamma's send parents to beta's deliver: one causal tree
     across three nodes *)
  let engine, net = setup ~latency:(Latency.constant 1.0) () in
  let spans = collect_spans engine in
  ignore (Engine.attach_causal engine);
  let a = register_sink net "alpha" (ref []) in
  let glog = ref [] in
  let g = register_sink net "gamma" glog in
  let b = ref a in
  b :=
    Network.register net ~name:"beta" ~handler:(fun ~src:_ _ ->
        Network.send net ~src:!b ~dst:g (Pong 2));
  Network.send net ~src:a ~dst:!b (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "relayed" 1 (List.length !glog);
  let deliver_ids =
    List.filter_map (fun (id, n, _, _) -> if n = "net.deliver" then Some id else None) !spans
  in
  let second_send_parent =
    (* the later send (higher id) is beta->gamma *)
    List.filter_map (fun (id, n, p, _) -> if n = "net.send" then Some (id, p) else None) !spans
    |> List.sort compare |> List.rev |> List.hd |> snd
  in
  Alcotest.(check bool) "relay send parents to a deliver span" true
    (match second_send_parent with Some p -> List.mem p deliver_ids | None -> false)

let test_no_spans_without_causal () =
  let engine, net = setup ~latency:(Latency.constant 2.0) () in
  let spans = collect_spans engine in
  let a = register_sink net "alpha" (ref []) in
  let log = ref [] in
  let b = register_sink net "beta" log in
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "delivered" 1 (List.length !log);
  Alcotest.(check int) "zero spans off the causal path" 0 (List.length !spans)

let test_causal_lost_message_no_deliver_span () =
  let engine, net = setup ~latency:(Latency.lossy (Latency.constant 1.0) ~drop:1.0) () in
  let spans = collect_spans engine in
  ignore (Engine.attach_causal engine);
  let a = register_sink net "alpha" (ref []) in
  let b = register_sink net "beta" (ref []) in
  Network.send net ~src:a ~dst:b (Ping 1);
  Engine.run engine;
  Alcotest.(check bool) "no deliver span for a lost message" true
    (not (List.exists (fun (_, n, _, _) -> n = "net.deliver") !spans))

let () =
  Alcotest.run "fortress_net"
    [
      ( "network",
        [
          Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
          Alcotest.test_case "latency" `Quick test_latency_applied;
          Alcotest.test_case "down node" `Quick test_down_node_loses_messages;
          Alcotest.test_case "crash voids in-flight" `Quick test_crash_voids_in_flight;
          Alcotest.test_case "recovery" `Quick test_recovery_receives_again;
          Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
          Alcotest.test_case "partition symmetric" `Quick test_partition_symmetric;
          Alcotest.test_case "multicast" `Quick test_multicast;
          Alcotest.test_case "lossy link" `Quick test_lossy_link;
          Alcotest.test_case "per-link latency" `Quick test_per_link_latency;
          Alcotest.test_case "unknown destination" `Quick test_unknown_destination;
          Alcotest.test_case "negative and unregistered ids" `Quick test_unregistered_ids;
          Alcotest.test_case "handler swap" `Quick test_set_handler_swap;
          Alcotest.test_case "node listing" `Quick test_node_listing;
          Alcotest.test_case "address collections" `Quick test_address_collections;
          Alcotest.test_case "latency sampling" `Quick test_latency_sampling;
        ] );
      ( "interceptor",
        [
          Alcotest.test_case "zero-latency ordering" `Quick test_zero_latency_ordering;
          Alcotest.test_case "pass is transparent" `Quick test_interceptor_pass_transparent;
          Alcotest.test_case "drop counted" `Quick test_interceptor_drop_counted;
          Alcotest.test_case "duplicate then drop" `Quick test_duplicate_then_drop;
          Alcotest.test_case "delivery to crashed node voided" `Quick
            test_deliver_to_crashed_is_void;
          Alcotest.test_case "corrupt without corrupter drops" `Quick
            test_corrupt_without_corrupter_drops;
          Alcotest.test_case "corrupter applied" `Quick test_corrupter_applied;
          Alcotest.test_case "partition precedes interceptor, heal re-delivers" `Quick
            test_partition_beats_interceptor_then_heals;
          Alcotest.test_case "unknown source" `Quick test_unknown_source;
        ] );
      ( "causal",
        [
          Alcotest.test_case "send/deliver parentage" `Quick
            test_causal_send_deliver_parentage;
          Alcotest.test_case "nested sends chain across nodes" `Quick
            test_causal_nested_sends_chain;
          Alcotest.test_case "no spans without causal" `Quick test_no_spans_without_causal;
          Alcotest.test_case "lost message, no deliver span" `Quick
            test_causal_lost_message_no_deliver_span;
        ] );
      ( "conn",
        [
          Alcotest.test_case "round-trip" `Quick test_conn_roundtrip;
          Alcotest.test_case "crash observation" `Quick test_conn_close_observed;
          Alcotest.test_case "loss after close" `Quick test_conn_messages_lost_after_close;
          Alcotest.test_case "idempotent close" `Quick test_conn_close_idempotent;
          Alcotest.test_case "client close notifies server" `Quick
            test_conn_client_close_notifies_server;
        ] );
    ]
