module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Address = Fortress_net.Address
module Instance = Fortress_defense.Instance
module Deployment = Fortress_core.Deployment
module Proxy = Fortress_core.Proxy
module Message = Fortress_core.Message
module Obfuscation = Fortress_core.Obfuscation
module Pb = Fortress_replication.Pb
module Prng = Fortress_util.Prng
module Event = Fortress_obs.Event
module Prof = Fortress_prof.Profiler
module Node_id = Fortress_model.Node_id
module Stats = Campaign_intf.Stats

let probe_phase = Prof.register "attack.probe"

type launchpad = Directive.launchpad = Within_step | Next_step

type config = {
  omega : int;
  kappa : float;
  period : float;
  pacing : Pacing.t;
  launchpad : launchpad;
  target_mode : Obfuscation.mode;
  rotate_sources : bool;
  seed : int;
}

let default_config =
  {
    omega = 64;
    kappa = 0.5;
    period = 100.0;
    pacing = Pacing.Uniform;
    launchpad = Within_step;
    target_mode = Obfuscation.PO;
    rotate_sources = true;
    seed = 0;
  }

let make_config ?(omega = default_config.omega) ?(kappa = default_config.kappa)
    ?(period = default_config.period) ?(pacing = default_config.pacing)
    ?(launchpad = default_config.launchpad) ?(target_mode = default_config.target_mode)
    ?(rotate_sources = default_config.rotate_sources) ~seed () =
  { omega; kappa; period; pacing; launchpad; target_mode; rotate_sources; seed }

type tracked = {
  knowledge : Knowledge.t;
  mutable epoch_seen : int;
  mutable flips : int;  (** epoch changes observed so far *)
  mutable exhausted_noted : bool;  (** one trace line per exhausted epoch *)
}

(* The live settings the arm loop reads. They start as copies of the
   config and move only when a staged directive is applied at a step
   boundary, so a campaign that never stages anything behaves — to the
   byte — like the fixed schedule. *)
type settings = {
  mutable kappa : float;
  mutable pacing : Pacing.t;
  mutable launchpad : launchpad;
  mutable excluded : bool array;  (** per-proxy target-set exclusion *)
}

type t = {
  deployment : Deployment.t;
  cfg : config;
  prng : Prng.t;
  proxy_tracks : tracked array;
  server_track : tracked;  (** servers share one key, so one knowledge pool *)
  proxy_fell_at : int option array;  (** step at which each proxy fell *)
  eff : settings;
  mutable staged : Directive.t;
  decide : Adaptive.Strategy.decide option;
      (** the strategy: observed at boundaries, and probes sample the
          symptom surface while it is set *)
  strategy_name : string;  (** tags Directive events; "manual" without a strategy *)
  unreach_seen : bool array;  (** per-proxy timeout symptoms this step *)
  mutable source : Address.t;
  mutable current_step : int;
  mutable compromised_at : int option;
  mutable direct_sent : int;
  mutable indirect_sent : int;
  mutable indirect_blocked : int;
  mutable launchpad_sent : int;
  mutable sources_burned : int;
  mutable intrusions : int;
  mutable exhausted_slots : int;  (** probe slots skipped for want of untried keys *)
  mutable server_probes : int;  (** probe attempts against the server tier *)
  mutable directives_applied : int;
  mutable rr : int;  (** round-robin proxy cursor for indirect probes *)
  mutable redirect : int;  (** cursor for re-targeting excluded proxies' slots *)
  (* per-step counter marks, snapshotted at each boundary *)
  mutable m_direct : int;
  mutable m_indirect : int;
  mutable m_blocked : int;
  mutable m_launchpad : int;
  mutable m_burned : int;
  mutable m_server_probes : int;
  mutable m_flips : int;
  mutable stale_steps : int;
}

let new_source t =
  Deployment.new_attacker_address t.deployment
    ~name:(Printf.sprintf "attacker-src%d" t.sources_burned)
    ~handler:(fun ~src:_ _ -> ())

let make ?strategy deployment cfg =
  let ks = Deployment.config deployment in
  let keyspace = ks.Deployment.keyspace in
  let np = Array.length (Deployment.proxies deployment) in
  let track inst =
    {
      knowledge = Knowledge.create keyspace;
      epoch_seen = Instance.epoch inst;
      flips = 0;
      exhausted_noted = false;
    }
  in
  let proxy_instances = Deployment.proxy_instances deployment in
  let server_instances = Deployment.server_instances deployment in
  let t =
    {
      deployment;
      cfg;
      prng = Prng.create ~seed:cfg.seed;
      proxy_tracks = Array.map track proxy_instances;
      server_track = track server_instances.(0);
      proxy_fell_at = Array.make (max np 1) None;
      eff =
        {
          kappa = cfg.kappa;
          pacing = cfg.pacing;
          launchpad = cfg.launchpad;
          excluded = Array.make (max np 1) false;
        };
      staged = Directive.unchanged;
      decide =
        Option.map
          (fun s -> s.Adaptive.Strategy.make ~default_kappa:cfg.kappa)
          strategy;
      strategy_name =
        (match strategy with Some s -> s.Adaptive.Strategy.name | None -> "manual");
      unreach_seen = Array.make (max np 1) false;
      source = Address.make 0;
      current_step = 1;
      compromised_at = None;
      direct_sent = 0;
      indirect_sent = 0;
      indirect_blocked = 0;
      launchpad_sent = 0;
      sources_burned = 0;
      intrusions = 0;
      exhausted_slots = 0;
      server_probes = 0;
      directives_applied = 0;
      rr = 0;
      redirect = 0;
      m_direct = 0;
      m_indirect = 0;
      m_blocked = 0;
      m_launchpad = 0;
      m_burned = 0;
      m_server_probes = 0;
      m_flips = 0;
      stale_steps = 0;
    }
  in
  t.source <- new_source t;
  t

(* The attacker knows the defender's schedule: on an epoch change, PO means
   fresh keys (knowledge void), SO means recovery only (knowledge holds).
   The epoch read stands in for an inference the attacker can make from its
   own statistics — a re-randomized target starts crashing on guesses the
   attacker had already eliminated (see DESIGN.md section 10). *)
let sync_track t track inst =
  let epoch = Instance.epoch inst in
  if epoch <> track.epoch_seen then begin
    track.epoch_seen <- epoch;
    track.flips <- track.flips + 1;
    track.exhausted_noted <- false;
    match t.cfg.target_mode with
    | Obfuscation.PO -> Knowledge.on_target_rekeyed track.knowledge
    | Obfuscation.SO -> Knowledge.on_target_recovered track.knowledge
  end

(* The attacker has eliminated the whole key space without a hit: the
   target's key changed under it. Skip the slot and keep waiting for the
   epoch change the next sync will pick up. *)
let note_exhausted t track ~what =
  t.exhausted_slots <- t.exhausted_slots + 1;
  if not track.exhausted_noted then begin
    track.exhausted_noted <- true;
    Engine.emit
      (Deployment.engine t.deployment)
      (Event.Note
         {
           label = "attacker_exhausted";
           detail = Printf.sprintf "key space exhausted against %s; attacker idles" what;
         })
  end

let note_if_compromised t =
  if t.compromised_at = None && Deployment.system_compromised t.deployment then
    t.compromised_at <- Some t.current_step

let primary_server_index t =
  let servers = Deployment.servers t.deployment in
  let found = ref 0 in
  Array.iteri (fun i r -> if Pb.is_primary r then found := i) servers;
  !found

let emit_probe t ~kind ~tier ~target outcome =
  Engine.emit
    (Deployment.engine t.deployment)
    (Event.Probe { kind; tier; target; outcome })

(* A probe against the shared server key, whether indirect (through a
   proxy) or over a captured launch pad. *)
let probe_server t ~kind =
  let insts = Deployment.server_instances t.deployment in
  t.server_probes <- t.server_probes + 1;
  sync_track t t.server_track insts.(0);
  match Knowledge.next_guess t.server_track.knowledge t.prng with
  | None -> note_exhausted t t.server_track ~what:"server tier"
  | Some guess -> (
      let target = primary_server_index t in
      match Instance.probe insts.(0) ~guess with
      | Instance.Crash ->
          Knowledge.observe_crash t.server_track.knowledge ~guess;
          emit_probe t ~kind ~tier:Event.Server_tier ~target Event.Crashed
      | Instance.Intrusion ->
          Knowledge.observe_intrusion t.server_track.knowledge ~guess;
          t.intrusions <- t.intrusions + 1;
          emit_probe t ~kind ~tier:Event.Server_tier ~target Event.Intruded;
          Deployment.compromise_server t.deployment target;
          note_if_compromised t)

let probe_proxy t j =
  let insts = Deployment.proxy_instances t.deployment in
  let track = t.proxy_tracks.(j) in
  sync_track t track insts.(j);
  match Knowledge.next_guess track.knowledge t.prng with
  | None -> note_exhausted t track ~what:(Printf.sprintf "proxy %d" j)
  | Some guess -> (
      match Instance.probe insts.(j) ~guess with
      | Instance.Crash ->
          Knowledge.observe_crash track.knowledge ~guess;
          emit_probe t ~kind:Event.Direct ~tier:Event.Proxy_tier ~target:j Event.Crashed
      | Instance.Intrusion ->
          Knowledge.observe_intrusion track.knowledge ~guess;
          t.intrusions <- t.intrusions + 1;
          emit_probe t ~kind:Event.Direct ~tier:Event.Proxy_tier ~target:j Event.Intruded;
          Deployment.compromise_proxy t.deployment j;
          if t.proxy_fell_at.(j) = None then t.proxy_fell_at.(j) <- Some t.current_step;
          note_if_compromised t)

(* Steer an excluded proxy's slot to the next included proxy (cursor scan);
   with nothing excluded this is the identity and touches no cursor. *)
let redirect_target t j np =
  if not t.eff.excluded.(j) then j
  else begin
    let rec find k n = if n = 0 then j else if not t.eff.excluded.(k) then k else find ((k + 1) mod np) (n - 1) in
    let k = find (t.redirect mod np) np in
    if k <> j then t.redirect <- t.redirect + 1;
    k
  end

(* Sample proxy [j]'s reachability symptom: a probe either times out or
   answers, and each probe is its own liveness check — fault windows open
   and close mid-step, so the verdict must not be cached across a step
   (a window period-aligned after the step's first probe would otherwise
   go unseen forever). Once a timeout has been seen this step the flag is
   monotone and resampling is skipped. Reads only; no PRNG, no events. *)
let sample_unreach t j =
  if Option.is_some t.decide && not t.unreach_seen.(j) then
    if
      Fortress_core.Symptom.is_unreachable
        (Deployment.symptoms t.deployment)
        (Node_id.Proxy j)
    then t.unreach_seen.(j) <- true

(* Direct probe slot aimed at proxy [j] (or at a server directly when there
   are no proxies). A fallen proxy turns its remaining slots into
   launch-pad probes, subject to the launchpad discipline. *)
let direct_probe_slot_unprofiled t j =
  if t.compromised_at = None then begin
    let np = Array.length (Deployment.proxies t.deployment) in
    if np = 0 then begin
      t.direct_sent <- t.direct_sent + 1;
      probe_server t ~kind:Event.Direct
    end
    else begin
      (* the probe is an interaction: its timeout-or-answer is the
         attacker's partition symptom (sampled against the slot's original
         target, before any redirect) *)
      sample_unreach t j;
      let j = redirect_target t j np in
      if not (Deployment.proxy_compromised t.deployment j) then begin
        t.direct_sent <- t.direct_sent + 1;
        (* the deployment may have cleared the flag at a boundary *)
        if t.proxy_fell_at.(j) <> None && t.cfg.target_mode = Obfuscation.PO then
          t.proxy_fell_at.(j) <- None;
        probe_proxy t j
      end
      else begin
        let usable =
          match t.eff.launchpad with
          | Within_step -> true
          | Next_step -> (
              match t.proxy_fell_at.(j) with
              | Some s -> s < t.current_step
              | None -> true (* fell before we started tracking: treat as old *))
        in
        if usable then begin
          t.launchpad_sent <- t.launchpad_sent + 1;
          probe_server t ~kind:Event.Launchpad
        end
      end
    end
  end

(* Indirect probe: route a probe command through a live proxy. The proxy
   logs it as an invalid request (and may block the source); if the source
   was not blocked, the probe reaches the server tier and tests the shared
   server key. *)
let direct_probe_slot t j =
  if Prof.is_enabled () then Prof.record probe_phase (fun () -> direct_probe_slot_unprofiled t j)
  else direct_probe_slot_unprofiled t j

(* Round-robin over the included proxies; with nothing excluded this is
   exactly the legacy single-increment round-robin. *)
let pick_indirect_proxy t np =
  let rec go n =
    let j = t.rr mod np in
    t.rr <- t.rr + 1;
    if n = 0 || not t.eff.excluded.(j) then j else go (n - 1)
  in
  go np

let indirect_probe_slot_unprofiled t =
  if t.compromised_at = None then begin
    let proxies = Deployment.proxies t.deployment in
    let np = Array.length proxies in
    if np > 0 then begin
      let j = pick_indirect_proxy t np in
      let proxy = proxies.(j) in
      let net = Deployment.network t.deployment in
      let engine = Deployment.engine t.deployment in
      sample_unreach t j;
      match Knowledge.next_guess t.server_track.knowledge t.prng with
      | None -> note_exhausted t t.server_track ~what:"server tier"
      | Some guess ->
          let cmd = Printf.sprintf "probe:%d" guess in
          let src = t.source in
          t.indirect_sent <- t.indirect_sent + 1;
          Network.send net ~src ~dst:(Deployment.proxy_addresses t.deployment).(j)
            (Message.Client_request
               { id = Printf.sprintf "atk-%d" t.indirect_sent; cmd; client = src });
          (* evaluate after the proxy has processed the request *)
          ignore
            (Engine.schedule engine ~delay:2.0 (fun () ->
                 if Proxy.is_blocked proxy src then begin
                   t.indirect_blocked <- t.indirect_blocked + 1;
                   emit_probe t ~kind:Event.Indirect ~tier:Event.Proxy_tier ~target:j
                     Event.Blocked;
                   if t.cfg.rotate_sources then begin
                     t.sources_burned <- t.sources_burned + 1;
                     t.source <- new_source t;
                     Engine.emit engine (Event.Source_rotated { burned = t.sources_burned })
                   end
                 end
                 else if t.compromised_at = None then probe_server t ~kind:Event.Indirect))
    end
  end

let indirect_probe_slot t =
  if Prof.is_enabled () then Prof.record probe_phase (fun () -> indirect_probe_slot_unprofiled t)
  else indirect_probe_slot_unprofiled t

(* ---- observe / decide / act plumbing ---- *)

let stage t directive = t.staged <- Directive.merge t.staged directive

(* Assemble what the attacker saw during the step that just completed.
   Pure reads and arithmetic only: no PRNG, no events. *)
let observe t =
  let np = Array.length (Deployment.proxies t.deployment) in
  let flips = t.server_track.flips in
  let server_delta = t.server_probes - t.m_server_probes in
  let rekey_missed = flips = t.m_flips && server_delta > 0 in
  let unreachable = ref [] in
  (if np = 0 then begin
     let syms = Deployment.symptoms t.deployment in
     for i = Array.length (Deployment.server_instances t.deployment) - 1 downto 0 do
       if Fortress_core.Symptom.is_unreachable syms (Node_id.Server i) then
         unreachable := Node_id.Server i :: !unreachable
     done
   end
   else
     for j = np - 1 downto 0 do
       if t.unreach_seen.(j) then unreachable := Node_id.Proxy j :: !unreachable
     done);
  t.stale_steps <- (if rekey_missed then t.stale_steps + 1 else 0);
  {
    Observation.step = t.current_step;
    direct_sent = t.direct_sent - t.m_direct;
    indirect_sent = t.indirect_sent - t.m_indirect;
    indirect_blocked = t.indirect_blocked - t.m_blocked;
    launchpad_sent = t.launchpad_sent - t.m_launchpad;
    sources_burned = t.sources_burned - t.m_burned;
    server_key_flips = flips;
    rekey_missed;
    stale_steps = t.stale_steps;
    unreachable = !unreachable;
    targets = (if np = 0 then Array.length (Deployment.server_instances t.deployment) else np);
  }

let reset_step_marks t =
  t.m_direct <- t.direct_sent;
  t.m_indirect <- t.indirect_sent;
  t.m_blocked <- t.indirect_blocked;
  t.m_launchpad <- t.launchpad_sent;
  t.m_burned <- t.sources_burned;
  t.m_server_probes <- t.server_probes;
  t.m_flips <- t.server_track.flips;
  Array.fill t.unreach_seen 0 (Array.length t.unreach_seen) false

(* Fold the staged directive (if any) into the live settings. Runs only at
   step boundaries; emits one Directive event when — and only when — a
   setting actually moved. *)
let apply_staged t =
  match t.staged with
  | d when Directive.is_unchanged d -> ()
  | d ->
      t.staged <- Directive.unchanged;
      let np = Array.length (Deployment.proxies t.deployment) in
      let changed = ref [] in
      let note what = changed := what :: !changed in
      (match d.Directive.kappa with
      | Some k ->
          let k = Float.min 1.0 (Float.max 0.0 k) in
          if k <> t.eff.kappa then begin
            t.eff.kappa <- k;
            note (Printf.sprintf "kappa=%g" k)
          end
      | None -> ());
      (match d.Directive.pacing with
      | Some p ->
          if p <> t.eff.pacing then begin
            t.eff.pacing <- p;
            note ("pacing=" ^ Pacing.to_string p)
          end
      | None -> ());
      (match d.Directive.launchpad with
      | Some l ->
          if l <> t.eff.launchpad then begin
            t.eff.launchpad <- l;
            note ("launchpad=" ^ Directive.launchpad_to_string l)
          end
      | None -> ());
      (match d.Directive.exclude with
      | Some nodes ->
          let fresh = Array.make (max np 1) false in
          List.iter
            (function
              | Node_id.Proxy j when j >= 0 && j < np -> fresh.(j) <- true
              | _ -> ())
            nodes;
          (* never exclude everything: an attacker with no targets left
             falls back to the full set *)
          if Array.for_all Fun.id (Array.sub fresh 0 (max np 1)) then
            Array.fill fresh 0 (Array.length fresh) false;
          if fresh <> t.eff.excluded then begin
            t.eff.excluded <- fresh;
            let named = ref [] in
            for j = np - 1 downto 0 do
              if fresh.(j) then named := string_of_int j :: !named
            done;
            note
              (if !named = [] then "exclude=none"
               else "exclude=proxy" ^ String.concat "+proxy" !named)
          end
      | None -> ());
      if !changed <> [] then begin
        t.directives_applied <- t.directives_applied + 1;
        Engine.emit
          (Deployment.engine t.deployment)
          (Event.Directive
             {
               step = t.current_step;
               strategy = t.strategy_name;
               detail = String.concat ", " (List.rev !changed);
             })
      end

let arm t =
  let engine = Deployment.engine t.deployment in
  let np = Array.length (Deployment.proxies t.deployment) in
  let direct_targets = max np 1 in
  let rec arm_step () =
    if t.compromised_at = None then begin
      let base = Engine.now engine in
      Engine.emit engine (Event.Step { n = t.current_step });
      let step_span = Engine.span engine "attack.step" in
      Fortress_obs.Span.set_attr step_span "step" (string_of_int t.current_step);
      let indirect_per_step =
        if np = 0 then 0
        else int_of_float (Float.round (t.eff.kappa *. float_of_int t.cfg.omega))
      in
      let direct_offsets = Pacing.offsets t.eff.pacing ~budget:t.cfg.omega ~period:t.cfg.period in
      List.iteri
        (fun s offset ->
          let at = base +. offset in
          for j = 0 to direct_targets - 1 do
            ignore (Engine.schedule_at engine ~time:at (fun () -> direct_probe_slot t j))
          done;
          if s < indirect_per_step then
            ignore
              (Engine.schedule_at engine
                 ~time:(at +. (t.cfg.period /. float_of_int (3 * (t.cfg.omega + 2))))
                 (fun () -> indirect_probe_slot t)))
        direct_offsets;
      ignore
        (Engine.schedule_at engine ~time:(base +. t.cfg.period) (fun () ->
             Engine.finish_span engine step_span;
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
  if cfg.omega <= 0 then invalid_arg "Campaign.launch: omega must be positive";
  if cfg.kappa < 0.0 || cfg.kappa > 1.0 then invalid_arg "Campaign.launch: kappa in [0,1]";
  let t = make ?strategy deployment cfg in
  arm t;
  t

let run_until_compromise t ~max_steps =
  let engine = Deployment.engine t.deployment in
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
    Stats.compromised_at_step = t.compromised_at;
    direct_probes_sent = t.direct_sent;
    indirect_probes_sent = t.indirect_sent;
    indirect_probes_blocked = t.indirect_blocked;
    launchpad_probes_sent = t.launchpad_sent;
    sources_burned = t.sources_burned;
    exhausted_slots = t.exhausted_slots;
    intrusions = t.intrusions;
    directives_applied = t.directives_applied;
  }

let current_step t = t.current_step
let config t = t.cfg

type live_settings = {
  kappa : float;
  pacing : Pacing.t;
  launchpad : launchpad;
  excluded : int list;
}

let settings t =
  let excluded = ref [] in
  for j = Array.length t.eff.excluded - 1 downto 0 do
    if t.eff.excluded.(j) then excluded := j :: !excluded
  done;
  { kappa = t.eff.kappa; pacing = t.eff.pacing; launchpad = t.eff.launchpad; excluded = !excluded }

let effective_kappa t =
  let intended = t.cfg.kappa *. float_of_int t.cfg.omega *. float_of_int t.current_step in
  if intended <= 0.0 then 0.0
  else float_of_int (t.indirect_sent - t.indirect_blocked) /. intended
