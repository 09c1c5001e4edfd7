module Engine = Fortress_sim.Engine
module Instance = Fortress_defense.Instance
module Smr_deployment = Fortress_core.Smr_deployment
module Obfuscation = Fortress_core.Obfuscation
module Prng = Fortress_util.Prng
module Event = Fortress_obs.Event
module Node_id = Fortress_model.Node_id
module Stats = Campaign_intf.Stats

type config = {
  omega : int;
  period : float;
  target_mode : Obfuscation.mode;
  seed : int;
}

let default_config = { omega = 64; period = 100.0; target_mode = Obfuscation.PO; seed = 0 }

let make_config ?(omega = default_config.omega) ?(period = default_config.period)
    ?(target_mode = default_config.target_mode) ~seed () =
  { omega; period; target_mode; seed }

type tracked = { knowledge : Knowledge.t; mutable epoch_seen : int; mutable flips : int }

type t = {
  deployment : Smr_deployment.t;
  cfg : config;
  prng : Prng.t;
  tracks : tracked array;
  excluded : bool array;
  mutable staged : Directive.t;
  decide : Adaptive.Strategy.decide option;
      (** the strategy: observed at boundaries, and probes sample the
          symptom surface while it is set *)
  strategy_name : string;  (** tags Directive events; "manual" without a strategy *)
  unreach_seen : bool array;
  mutable redirect : int;
  mutable current_step : int;
  mutable compromised_at : int option;
  mutable probes : int;
  mutable intrusions : int;
  mutable directives_applied : int;
  mutable m_probes : int;
  mutable m_flips : int;
  mutable stale_steps : int;
}

let make ?strategy deployment cfg =
  let instances = Smr_deployment.instances deployment in
  let tracks =
    Array.map
      (fun inst ->
        {
          knowledge = Knowledge.create (Instance.keyspace inst);
          epoch_seen = Instance.epoch inst;
          flips = 0;
        })
      instances
  in
  let n = Array.length instances in
  {
    deployment;
    cfg;
    prng = Prng.create ~seed:cfg.seed;
    tracks;
    excluded = Array.make (max n 1) false;
    staged = Directive.unchanged;
    (* S0 has no indirect channel, so there is no configured kappa to
       restore *)
    decide = Option.map (fun s -> s.Adaptive.Strategy.make ~default_kappa:0.0) strategy;
    strategy_name =
      (match strategy with Some s -> s.Adaptive.Strategy.name | None -> "manual");
    unreach_seen = Array.make (max n 1) false;
    redirect = 0;
    current_step = 1;
    compromised_at = None;
    probes = 0;
    intrusions = 0;
    directives_applied = 0;
    m_probes = 0;
    m_flips = 0;
    stale_steps = 0;
  }

let sync_track t track inst =
  let epoch = Instance.epoch inst in
  if epoch <> track.epoch_seen then begin
    track.epoch_seen <- epoch;
    track.flips <- track.flips + 1;
    match t.cfg.target_mode with
    | Obfuscation.PO -> Knowledge.on_target_rekeyed track.knowledge
    | Obfuscation.SO -> Knowledge.on_target_recovered track.knowledge
  end

let do_probe_replica t i =
  let inst = (Smr_deployment.instances t.deployment).(i) in
  let track = t.tracks.(i) in
  sync_track t track inst;
  if not (Smr_deployment.compromised t.deployment i) then begin
    t.probes <- t.probes + 1;
    match Knowledge.next_guess track.knowledge t.prng with
    | None -> () (* exhausted: idle until the next epoch change *)
    | Some guess -> (
        match Instance.probe inst ~guess with
        | Instance.Crash -> Knowledge.observe_crash track.knowledge ~guess
        | Instance.Intrusion ->
            Knowledge.observe_intrusion track.knowledge ~guess;
            t.intrusions <- t.intrusions + 1;
            Smr_deployment.compromise t.deployment i;
            if Smr_deployment.system_compromised t.deployment then
              t.compromised_at <- Some t.current_step)
  end
  else if Knowledge.known_key track.knowledge <> None then begin
    (* SO: the key is known and recovery did not change it — instant
       re-capture *)
    t.probes <- t.probes + 1;
    t.intrusions <- t.intrusions + 1;
    Smr_deployment.compromise t.deployment i;
    if Smr_deployment.system_compromised t.deployment then
      t.compromised_at <- Some t.current_step
  end

(* Steer an excluded replica's slot to the next included replica (cursor
   scan); with nothing excluded this is the identity. *)
let redirect_target t i n =
  if not t.excluded.(i) then i
  else begin
    let rec find k m = if m = 0 then i else if not t.excluded.(k) then k else find ((k + 1) mod n) (m - 1) in
    let k = find (t.redirect mod n) n in
    if k <> i then t.redirect <- t.redirect + 1;
    k
  end

let probe_replica t i =
  if t.compromised_at = None then begin
    let n = Array.length (Smr_deployment.instances t.deployment) in
    (* each probe is its own liveness check (see Campaign.sample_unreach) *)
    if Option.is_some t.decide && not t.unreach_seen.(i) then
      if
        Fortress_core.Symptom.is_unreachable
          (Smr_deployment.symptoms t.deployment)
          (Node_id.Replica i)
      then t.unreach_seen.(i) <- true;
    let i = redirect_target t i n in
    do_probe_replica t i
  end

(* ---- observe / decide / act plumbing (mirrors Campaign) ---- *)

let stage t directive = t.staged <- Directive.merge t.staged directive

let observe t =
  let n = Array.length (Smr_deployment.instances t.deployment) in
  let flips = Array.fold_left (fun acc tr -> acc + tr.flips) 0 t.tracks in
  let probes_delta = t.probes - t.m_probes in
  let rekey_missed = flips = t.m_flips && probes_delta > 0 in
  let unreachable = ref [] in
  for i = n - 1 downto 0 do
    if t.unreach_seen.(i) then unreachable := Node_id.Replica i :: !unreachable
  done;
  t.stale_steps <- (if rekey_missed then t.stale_steps + 1 else 0);
  {
    Observation.step = t.current_step;
    direct_sent = probes_delta;
    indirect_sent = 0;
    indirect_blocked = 0;
    launchpad_sent = 0;
    sources_burned = 0;
    server_key_flips = flips;
    rekey_missed;
    stale_steps = t.stale_steps;
    unreachable = !unreachable;
    targets = n;
  }

let reset_step_marks t =
  t.m_probes <- t.probes;
  t.m_flips <- Array.fold_left (fun acc tr -> acc + tr.flips) 0 t.tracks;
  Array.fill t.unreach_seen 0 (Array.length t.unreach_seen) false

(* S0 has no kappa/pacing/launchpad knobs — only the exclusion set acts;
   other directive fields are silently inert here. *)
let apply_staged t =
  match t.staged with
  | d when Directive.is_unchanged d -> ()
  | d ->
      t.staged <- Directive.unchanged;
      (match d.Directive.exclude with
      | Some nodes ->
          let n = Array.length (Smr_deployment.instances t.deployment) in
          let fresh = Array.make (max n 1) false in
          List.iter
            (function
              | Node_id.Replica i when i >= 0 && i < n -> fresh.(i) <- true
              | _ -> ())
            nodes;
          if Array.for_all Fun.id fresh then Array.fill fresh 0 (Array.length fresh) false;
          if fresh <> t.excluded then begin
            Array.blit fresh 0 t.excluded 0 (Array.length fresh);
            t.directives_applied <- t.directives_applied + 1;
            let named = ref [] in
            for i = n - 1 downto 0 do
              if fresh.(i) then named := string_of_int i :: !named
            done;
            Engine.emit
              (Smr_deployment.engine t.deployment)
              (Event.Directive
                 {
                   step = t.current_step;
                   strategy = t.strategy_name;
                   detail =
                     (if !named = [] then "exclude=none"
                      else "exclude=replica" ^ String.concat "+replica" !named);
                 })
          end
      | None -> ())

let arm t =
  let engine = Smr_deployment.engine t.deployment in
  let n = Array.length (Smr_deployment.instances t.deployment) in
  let rec arm_step () =
    if t.compromised_at = None then begin
      let base = Engine.now engine in
      let spacing = t.cfg.period /. float_of_int (t.cfg.omega + 2) in
      for s = 0 to t.cfg.omega - 1 do
        let at = base +. (spacing *. float_of_int (s + 1)) in
        for i = 0 to n - 1 do
          ignore (Engine.schedule_at engine ~time:at (fun () -> probe_replica t i))
        done
      done;
      ignore
        (Engine.schedule_at engine ~time:(base +. t.cfg.period) (fun () ->
             Option.iter
               (fun decide ->
                 let obs = observe t in
                 reset_step_marks t;
                 stage t (decide obs))
               t.decide;
             t.current_step <- t.current_step + 1;
             apply_staged t;
             arm_step ()))
    end
  in
  arm_step ()

let launch ?strategy deployment cfg =
  if cfg.omega <= 0 then invalid_arg "Smr_campaign.launch: omega must be positive";
  let t = make ?strategy deployment cfg in
  arm t;
  t

let run_until_compromise t ~max_steps =
  let engine = Smr_deployment.engine t.deployment in
  let rec go () =
    match t.compromised_at with
    | Some s -> Some s
    | None ->
        if t.current_step > max_steps then None
        else begin
          Engine.run ~until:(Engine.now engine +. t.cfg.period) engine;
          go ()
        end
  in
  go ()

let stats t =
  {
    Stats.zero with
    Stats.compromised_at_step = t.compromised_at;
    direct_probes_sent = t.probes;
    intrusions = t.intrusions;
    directives_applied = t.directives_applied;
  }

let current_step t = t.current_step

let excluded_replicas t =
  let out = ref [] in
  for i = Array.length t.excluded - 1 downto 0 do
    if t.excluded.(i) then out := i :: !out
  done;
  !out
