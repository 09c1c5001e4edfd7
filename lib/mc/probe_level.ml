module Prng = Fortress_util.Prng
module Systems = Fortress_model.Systems
module Keyspace = Fortress_defense.Keyspace
module Instance = Fortress_defense.Instance
module Knowledge = Fortress_attack.Knowledge

type mode = PO | SO

type config = {
  chi : int;
  omega : int;
  kappa : float;
  np : int;
  mode : mode;
  launchpad : Systems.launchpad;
  max_steps : int;
}

let default =
  {
    chi = 4096;
    omega = 8;
    kappa = 0.5;
    np = 3;
    mode = PO;
    launchpad = Systems.Remaining;
    max_steps = 200_000;
  }

let alpha_of cfg = float_of_int cfg.omega /. float_of_int cfg.chi

(* Distinct keys one randomization of [system] draws: the key space must
   hold them, or drawing them never ends. *)
let keys_drawn system cfg =
  match system with
  | Systems.S0_PO | Systems.S0_SO -> 4
  | Systems.S1_PO | Systems.S1_SO -> 1
  | Systems.S2_PO | Systems.S2_SO -> cfg.np + 1

let validate system cfg =
  if cfg.chi < 2 then invalid_arg "Probe_level: chi must be >= 2";
  if cfg.omega < 1 then invalid_arg "Probe_level: omega must be >= 1";
  if cfg.kappa < 0.0 || cfg.kappa > 1.0 then invalid_arg "Probe_level: kappa in [0,1]";
  if cfg.np < 1 then invalid_arg "Probe_level: np must be >= 1";
  let keys = keys_drawn system cfg in
  if cfg.chi < keys then
    invalid_arg
      (Printf.sprintf "Probe_level: chi must be >= %d for %s (it draws %d distinct keys)" keys
         (Systems.system_to_string system) keys)

(* Draw a key different from everything in [avoid]. *)
let rec distinct_key ks prng avoid =
  let k = Keyspace.random_key ks prng in
  if List.mem k avoid then distinct_key ks prng avoid else k

(* ---- one-tier systems: a single probe stream tests all replicas ---- *)

(* S0: requests reach all four replicas, so one probe tests four distinct
   keys at once; S1: the three replicas share one key, so the same stream
   tests a single key. *)
let one_tier ~nkeys ~fail_at cfg prng =
  let ks = Keyspace.of_size cfg.chi in
  let keys = Array.make nkeys 0 in
  let assign_keys () =
    let avoid = ref [] in
    for i = 0 to nkeys - 1 do
      let k = distinct_key ks prng !avoid in
      avoid := k :: !avoid;
      keys.(i) <- k
    done
  in
  assign_keys ();
  let knowledge = Knowledge.create ks in
  let found = Array.make nkeys false in
  let found_count = ref 0 in
  let rec step i =
    if i > cfg.max_steps then None
    else begin
      let compromised = ref false in
      let budget = min cfg.omega (Knowledge.remaining knowledge) in
      let m = ref 0 in
      while (not !compromised) && !m < budget do
        incr m;
        match Knowledge.next_guess knowledge prng with
        | None -> () (* unreachable: budget <= remaining *)
        | Some guess ->
            Knowledge.observe_crash knowledge ~guess;
            for n = 0 to nkeys - 1 do
              if (not found.(n)) && keys.(n) = guess then begin
                found.(n) <- true;
                incr found_count
              end
            done;
            if !found_count >= fail_at then compromised := true
      done;
      if !compromised then Some i
      else begin
        (match cfg.mode with
        | PO ->
            (* boundary: fresh diverse keys, attacker knowledge void,
               intruders evicted *)
            assign_keys ();
            Knowledge.on_target_rekeyed knowledge;
            Array.fill found 0 nkeys false;
            found_count := 0
        | SO -> (* recovery: same keys, knowledge and found keys persist *) ());
        step (i + 1)
      end
    end
  in
  step 1

(* ---- FORTRESS ---- *)

let s2 cfg prng =
  let ks = Keyspace.of_size cfg.chi in
  let proxy_keys = Array.make cfg.np 0 in
  let server_key = ref 0 in
  let assign_keys () =
    let sk = Keyspace.random_key ks prng in
    server_key := sk;
    let avoid = ref [ sk ] in
    for j = 0 to cfg.np - 1 do
      let k = distinct_key ks prng !avoid in
      avoid := k :: !avoid;
      proxy_keys.(j) <- k
    done
  in
  assign_keys ();
  let proxy_knowledge = Array.init cfg.np (fun _ -> Knowledge.create ks) in
  let server_knowledge = Knowledge.create ks in
  let owned = Array.make cfg.np false in
  let indirect_budget = int_of_float (Float.round (cfg.kappa *. float_of_int cfg.omega)) in
  let server_found = ref false in
  (* fire [n] probes at the server key from a stream sharing the server
     knowledge pool *)
  let probe_server n =
    let m = ref 0 in
    while (not !server_found) && !m < n && Knowledge.remaining server_knowledge > 0 do
      incr m;
      match Knowledge.next_guess server_knowledge prng with
      | None -> () (* unreachable: the loop guard checks [remaining] *)
      | Some guess ->
          if guess = !server_key then begin
            Knowledge.observe_intrusion server_knowledge ~guess;
            server_found := true
          end
          else Knowledge.observe_crash server_knowledge ~guess
    done
  in
  let rec step i =
    if i > cfg.max_steps then None
    else begin
      server_found := false;
      let owned_this_step = Array.copy owned in
      (* direct channels: each proxy gets its own omega budget *)
      for j = 0 to cfg.np - 1 do
        if not !server_found then
          if owned_this_step.(j) then
            (* a standing launch pad (SO): the whole budget turns on the
               server *)
            probe_server cfg.omega
          else begin
            let kn = proxy_knowledge.(j) in
            let budget = min cfg.omega (Knowledge.remaining kn) in
            let m = ref 0 in
            let fell_at = ref None in
            while !fell_at = None && !m < budget do
              incr m;
              match Knowledge.next_guess kn prng with
              | None -> () (* unreachable: budget <= remaining *)
              | Some guess ->
                  if guess = proxy_keys.(j) then begin
                    Knowledge.observe_intrusion kn ~guess;
                    fell_at := Some !m
                  end
                  else Knowledge.observe_crash kn ~guess
            done;
            match !fell_at with
            | None -> ()
            | Some m ->
                owned_this_step.(j) <- true;
                (match cfg.launchpad with
                | Systems.Remaining -> probe_server (cfg.omega - m)
                | Systems.Full -> probe_server cfg.omega
                | Systems.Next_step -> ())
          end
      done;
      (* the indirect stream, paced at kappa * omega through the proxies *)
      if not !server_found then probe_server indirect_budget;
      let all_proxies = Array.for_all Fun.id owned_this_step in
      if !server_found || all_proxies then Some i
      else begin
        (match cfg.mode with
        | PO ->
            assign_keys ();
            Array.iter Knowledge.on_target_rekeyed proxy_knowledge;
            Knowledge.on_target_rekeyed server_knowledge;
            Array.fill owned 0 cfg.np false
        | SO ->
            (* recovery evicts the intruder but keys survive: a learned
               proxy key means instant re-capture next step *)
            Array.blit owned_this_step 0 owned 0 cfg.np);
        step (i + 1)
      end
    end
  in
  step 1

let lifetime system cfg prng =
  validate system cfg;
  match system with
  | Systems.S0_PO -> one_tier ~nkeys:4 ~fail_at:2 { cfg with mode = PO } prng
  | Systems.S0_SO -> one_tier ~nkeys:4 ~fail_at:2 { cfg with mode = SO } prng
  | Systems.S1_PO -> one_tier ~nkeys:1 ~fail_at:1 { cfg with mode = PO } prng
  | Systems.S1_SO -> one_tier ~nkeys:1 ~fail_at:1 { cfg with mode = SO } prng
  | Systems.S2_PO -> s2 { cfg with mode = PO } prng
  | Systems.S2_SO -> s2 { cfg with mode = SO } prng

let estimate ?sink ?jobs ?(trials = 500) ?(seed = 42) system cfg =
  Trial.run ?sink ?jobs ~trials ~seed ~sampler:(lifetime system cfg) ()
