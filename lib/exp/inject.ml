module Controller = Fortress_defense.Controller
module Mdp = Fortress_defense.Mdp
module Adaptive = Fortress_attack.Adaptive
module Engine = Fortress_sim.Engine
module Plan = Fortress_faults.Plan
module Injector = Fortress_faults.Injector
module Trial = Fortress_mc.Trial
module Sink = Fortress_obs.Sink
module Timeline = Fortress_obs.Timeline
module Signal = Fortress_obs.Signal
module Latency = Fortress_obs.Latency
module Table = Fortress_util.Table
module Workload = Fortress_load.Workload

type config = {
  trials : int;
  chi : int;
  omega : int;
  kappa : float;
  max_steps : int;
  seed : int;
  jobs : int;
  load : Workload.spec option;
      (** attach the {!Fortress_load.Workload} plane (open/closed-loop
          seeded load with latency accounting) to every trial; [None]
          (the default) keeps the run byte-identical to a load-free
          build *)
  telemetry : float option;
      (** window width (virtual time) for the pooled timeline; [None]
          (the default) keeps the run byte-identical to a telemetry-free
          build *)
  causal : bool;
      (** attach a causal trace context (plus an in-trial alarm-emitting
          telemetry plane) to every trial's engine and extract detection/
          reaction latency chains; off by default — the event stream is
          then byte-identical to a causal-free build *)
}

let default_config =
  {
    trials = 12;
    chi = 256;
    omega = 8;
    kappa = 0.5;
    max_steps = 400;
    seed = 1;
    jobs = 1;
    load = None;
    telemetry = None;
    causal = false;
  }

(* the fortress stack's availability probe: one request every this many
   time units *)
let workload_period = 20.0

type run = {
  plan_name : string;
  el : Trial.result;
  requests_issued : int;
  requests_answered : int;
  availability : float option;
      (** answered / issued; [None] when the run issued no requests (the
          SMR path without [--load]) instead of a fabricated 1.0 *)
  load : Workload.stats option;
      (** workload-plane accounting (logical counts + latency histogram),
          merged over all trials in index order; present when
          {!config.load} was set *)
  faults : Injector.stats;  (** summed over all trials *)
  directives : int;  (** adaptive directives applied, summed over all trials *)
  defender_directives : int;
      (** defender directives applied, summed over all trials; 0 without a
          controller (and, by the static conformance contract, with the
          [static] one) *)
  digest : string;
  telemetry : (Timeline.t * Signal.t) option;
      (** pooled windowed timeline over every trial's replayed stream,
          present when {!config.telemetry} was set *)
  latency : Latency.t option;
      (** detection/reaction/stall-rekey chains merged over all trials in
          index order, present when {!config.causal} was set *)
}

let accumulate (acc : Injector.stats) (s : Injector.stats) =
  acc.Injector.dropped <- acc.Injector.dropped + s.Injector.dropped;
  acc.Injector.duplicated <- acc.Injector.duplicated + s.Injector.duplicated;
  acc.Injector.reordered <- acc.Injector.reordered + s.Injector.reordered;
  acc.Injector.corrupted <- acc.Injector.corrupted + s.Injector.corrupted;
  acc.Injector.delayed <- acc.Injector.delayed + s.Injector.delayed;
  acc.Injector.timeline_fired <- acc.Injector.timeline_fired + s.Injector.timeline_fired

(* One campaign under the plan: the attacker hunts the key while a benign
   client polls the service; the trial's lifetime is the campaign's, the
   availability sample is answered / issued over the same horizon. *)
(* With a trace id (cfg.causal), the trial additionally gets a causal
   span context — ids drawn from the trial's own block, so the pooled
   stream is job-count invariant — and its own alarm-emitting telemetry
   plane: the defender's sensing plane stays [~alarms:false] (the static
   byte-identity contract), so the alarms that detection latency is
   measured against must come from a separate, observation-only plane. *)
let attach_causal_plane engine = function
  | None -> None
  | Some trace_id ->
      ignore (Engine.attach_causal ~trace_id engine);
      let tl, _signals = Engine.attach_telemetry ~alarms:true engine in
      Some tl

(* One campaign on any stack implementing Stack_driver.S — the fortress
   and SMR trial bodies used to be near-duplicates of this function. The
   operation order is load-bearing for byte-identity with the historical
   per-stack code: sinks, causal plane, obfuscation, fault plan, defender,
   the default health-probe workload (fortress only), then the campaign.
   The [--load] workload plane attaches after the default client so a
   load-free run consumes exactly the historical PRNG stream. *)
let stack_trial (type s) (module D : Stack_driver.S with type t = s) ?strategy ?defender
    cfg plan ~digest ~record ~latency ~trace_id ~faults ~issued ~answered ~load_stats
    ~directives ~ddirectives ~seed =
  let period = 100.0 in
  let stack : s = D.make ~chi:cfg.chi ~seed in
  let engine = D.engine stack in
  ignore (Sink.attach (Engine.sink engine) digest);
  Option.iter (fun r -> ignore (Sink.attach (Engine.sink engine) r)) record;
  Option.iter (fun l -> ignore (Sink.attach (Engine.sink engine) l)) latency;
  let causal_tl = attach_causal_plane engine trace_id in
  D.start_obfuscation stack ~period;
  let plan_stats = D.install_plan stack plan ~seed in
  (* the defender arms after the obfuscation daemon, so at a shared
     boundary time the rekey lands (closing the telemetry window) before
     the controller observes it *)
  let defense =
    Option.map
      (Fortress_core.Defense_control.attach
         (module D : Fortress_core.Stack_intf.S with type t = s)
         stack)
      defender
  in
  if D.default_workload then begin
    let client = D.new_client stack ~name:"workload" in
    let n = ref 0 in
    ignore
      (Engine.every engine ~period:workload_period (fun () ->
           incr n;
           incr issued;
           ignore
             (D.submit client
                ~cmd:(Printf.sprintf "get health%d" !n)
                ~on_response:(fun _ -> incr answered))))
  end;
  let load_handle =
    Option.map
      (fun spec -> Workload.attach (module D : Fortress_core.Stack_intf.S with type t = s and type client = D.client) stack ~seed spec)
      cfg.load
  in
  let lifetime =
    if cfg.omega = 0 then begin
      (* the no-attack baseline of the degradation surface: no campaign
         is launched (both campaign constructors reject omega = 0), the
         engine just runs the same virtual horizon the campaign would *)
      Engine.run ~until:(float_of_int cfg.max_steps *. period) (D.engine stack);
      None
    end
    else
      D.run_campaign ?strategy stack ~omega:cfg.omega ~kappa:cfg.kappa ~period
        ~seed:(seed + 7919) ~max_steps:cfg.max_steps ~directives
  in
  Option.iter
    (fun c -> ddirectives := !ddirectives + Controller.directives_applied c)
    defense;
  (match (load_handle, load_stats) with
  | Some h, Some acc ->
      let s = Workload.stats h in
      (* logical load requests join the availability denominator *)
      issued := !issued + s.Workload.issued;
      answered := !answered + s.Workload.answered;
      Workload.accumulate acc s
  | _ -> ());
  Option.iter Timeline.finish causal_tl;
  accumulate faults (plan_stats ());
  lifetime

(* The per-trial side channel filled in by whichever domain runs the
   trial: every cell is written by exactly one trial index, and the join
   reads them only after all workers complete, so the slots are race-free
   under the deterministic partition. *)
type trial_slot = {
  ts_digest : string;
  ts_faults : Injector.stats;
  ts_issued : int;
  ts_answered : int;
  ts_directives : int;
  ts_ddirectives : int;
  ts_replay : (Sink.t -> unit) option;
      (** the trial's buffered event stream, replayed at the join *)
  ts_latency : Latency.t option;
      (** the trial's extracted latency chains, merged at the join *)
  ts_load : Workload.stats option;
      (** the trial's workload-plane accounting, merged at the join *)
}

let run_plan_with trial ?sink ?(causal_offset = 0) cfg plan =
  let slots = Array.make cfg.trials None in
  (* Telemetry rides on the join-replay machinery: each trial records its
     engine's event stream into a private buffer, [on_join] replays the
     buffers into the shared sink in trial-index order, and the timeline
     subscribed there aggregates the pooled stream. Late events from
     later trials (virtual time restarts near 0 every trial) land in the
     retained window for their timestamp, so the pooled timeline — like
     everything else at the join — is independent of the job count. *)
  let sink, timeline =
    match cfg.telemetry with
    | None -> (sink, None)
    | Some width ->
        let s = match sink with Some s -> s | None -> Sink.create () in
        let tl = Timeline.create ~width () in
        let handle = Sink.attach s (Timeline.subscriber tl) in
        (Some s, Some (tl, handle))
  in
  (* Per-trial capture is lazy: the buffer is allocated and events are
     recorded only when the pooled stream has a consumer — a timeline, a
     trace writer, or any other subscriber on the shared sink. A bare run
     (no subscribers) skips buffer allocation and event capture entirely;
     the per-trial digest subscriber is unaffected either way. *)
  let capture =
    match sink with Some s -> Sink.subscriber_count s > 0 | None -> false
  in
  (* index-structural per-trial seeds (cfg.seed * 1000 + index), the same
     sequence the original sequential counter produced: every plan replays
     the same seed sequence, so deltas are paired comparisons, and every
     job count replays the same per-index seed, so parallel runs stay
     paired too *)
  let on_join =
    match sink with
    | Some s when capture ->
        Some
          (fun ~index ->
            match slots.(index - 1) with
            | Some ({ ts_replay = Some replay; _ } as slot) ->
                replay s;
                (* the recording is spent: drop it, so a sequential run
                   holds one trial's events at a time (a parallel join
                   starts once every trial has recorded) *)
                slots.(index - 1) <- Some { slot with ts_replay = None }
            | _ -> ())
    | _ -> None
  in
  let el =
    Trial.run_indexed ?sink ?on_join ~jobs:cfg.jobs ~trials:cfg.trials ~seed:cfg.seed
      ~sampler:(fun ~index _prng ->
        let digest, finalize = Sink.digesting () in
        let buffer = if capture then Some (Sink.buffered ()) else None in
        let latency = if cfg.causal then Some (Latency.collector ()) else None in
        let faults = Injector.fresh_stats () in
        let issued = ref 0 and answered = ref 0 in
        let directives = ref 0 and ddirectives = ref 0 in
        let load_stats = Option.map (fun _ -> Workload.fresh_stats ()) cfg.load in
        let lifetime =
          trial cfg plan ~digest ~record:(Option.map fst buffer)
            ~latency:(Option.map fst latency)
            ~trace_id:(if cfg.causal then Some (causal_offset + index) else None)
            ~faults ~issued ~answered ~load_stats ~directives ~ddirectives
            ~seed:((cfg.seed * 1000) + index)
        in
        slots.(index - 1) <-
          Some
            { ts_digest = finalize (); ts_faults = faults; ts_issued = !issued;
              ts_answered = !answered; ts_directives = !directives;
              ts_ddirectives = !ddirectives; ts_replay = Option.map snd buffer;
              ts_latency = Option.map (fun (_, fin) -> fin ()) latency;
              ts_load = load_stats };
        lifetime)
      ()
  in
  let faults = Injector.fresh_stats () in
  let issued = ref 0 and answered = ref 0 in
  let directives = ref 0 and ddirectives = ref 0 in
  let digests = ref [] in
  let load = Option.map (fun _ -> Workload.fresh_stats ()) cfg.load in
  (* fold the per-trial digests and counters in index order at the join *)
  Array.iter
    (function
      | None -> ()
      | Some s ->
          digests := s.ts_digest :: !digests;
          accumulate faults s.ts_faults;
          issued := !issued + s.ts_issued;
          answered := !answered + s.ts_answered;
          directives := !directives + s.ts_directives;
          ddirectives := !ddirectives + s.ts_ddirectives;
          (match (load, s.ts_load) with
          | Some acc, Some l -> Workload.accumulate acc l
          | _ -> ()))
    slots;
  let telemetry =
    Option.map
      (fun (tl, handle) ->
        Timeline.finish tl;
        (* score the pooled windows, appending alarms to the shared trace
           after the replayed streams; then detach so a later plan on the
           same sink cannot mutate this run's timeline *)
        let emit =
          Option.map (fun s -> fun ~time ev -> Sink.emit s ~time ev) sink
        in
        let signals = Signal.of_timeline ?emit tl in
        Option.iter (fun s -> Sink.detach s handle) sink;
        (tl, signals))
      timeline
  in
  let latency =
    if cfg.causal then
      Some
        (Latency.merge
           (Array.to_list slots
           |> List.filter_map (function
                | Some { ts_latency = Some l; _ } -> Some l
                | _ -> None)))
    else None
  in
  {
    plan_name = plan.Plan.name;
    el;
    requests_issued = !issued;
    requests_answered = !answered;
    availability =
      (if !issued = 0 then None
       else Some (float_of_int !answered /. float_of_int !issued));
    load;
    faults;
    directives = !directives;
    defender_directives = !ddirectives;
    digest = Sink.digest_lines (List.rev !digests);
    telemetry;
    latency;
  }

let run_plan ?sink ?causal_offset ?strategy ?defender cfg plan =
  run_plan_with
    (stack_trial (module Stack_driver.Fortress) ?strategy ?defender)
    ?sink ?causal_offset cfg plan

let run_smr_plan ?sink ?causal_offset ?strategy ?defender cfg plan =
  run_plan_with
    (stack_trial (module Stack_driver.Smr) ?strategy ?defender)
    ?sink ?causal_offset cfg plan

(* Option-typed availability rendering: [None] (nothing issued) prints as
   "n/a", and a delta exists only when both sides measured something. *)
let avail_str = function None -> "n/a" | Some a -> Printf.sprintf "%.3f" a

let davail_str a b =
  match (a, b) with
  | Some a, Some b -> Printf.sprintf "%+.3f" (b -. a)
  | _ -> "-"

let find_defender name =
  if name = "mdp" then Some (Mdp.strategy ()) else Controller.Strategy.find name

let defender_names = Controller.Strategy.names @ [ "mdp" ]

type adapt_row = {
  ar_plan : string;
  ar_oblivious_el : float;
  ar_adaptive_el : float;
  ar_delta : float;  (** adaptive minus oblivious; negative = attacker gained *)
  ar_directives : int;
}

type adapt = { strategy_name : string; rows : adapt_row list }

type defend_row = {
  dr_plan : string;
  dr_static_el : float;
  dr_defended_el : float;
  dr_delta : float;  (** defended minus static; positive = defender gained *)
  dr_static_avail : float option;
  dr_defended_avail : float option;
  dr_davail : float option;
      (** defended minus static; [None] when either side issued nothing *)
  dr_directives : int;  (** defender directives applied *)
}

type defend = { defender_name : string; drows : defend_row list }

type report = {
  config : config;
  baseline : run;
  runs : run list;
  adapt : adapt option;
  defend : defend option;
}

(* Mean EL treating an all-censored run as the horizon itself: a plan so
   gentle the system always survives is "at least max_steps". *)
let mean_el cfg (r : run) =
  if Float.is_nan r.el.Trial.mean then float_of_int cfg.max_steps else r.el.Trial.mean

let run ?sink ?strategy ?defender ?(stack = `Fortress) ?(config = default_config) ~plans ()
    =
  let run_plan ?sink ?causal_offset ?strategy ?defender cfg plan =
    match stack with
    | `Fortress -> run_plan ?sink ?causal_offset ?strategy ?defender cfg plan
    | `Smr -> run_smr_plan ?sink ?causal_offset ?strategy ?defender cfg plan
  in
  (* each plan run gets its own block of trace ids so causal span ids stay
     unique when several plans share one pooled trace sink *)
  let baseline = run_plan ?sink ~causal_offset:0 ?strategy ?defender config Plan.none in
  let runs =
    List.mapi
      (fun i plan ->
        run_plan ?sink ~causal_offset:((i + 1) * 1000) ?strategy ?defender config plan)
      plans
  in
  let adapt =
    match strategy with
    | None -> None
    | Some s ->
        let oblivious_el plan run =
          (* oblivious is byte-identical to the fixed schedule, so its own
             runs double as the reference; other strategies pay one extra
             fixed-schedule pass per plan (no sink: the trace was already
             exported by the strategy pass). The defender — if any — rides
             along in the reference too, so the comparison varies only the
             attacker. *)
          if s.Adaptive.Strategy.name = Adaptive.Strategy.oblivious.Adaptive.Strategy.name
          then mean_el config run
          else
            mean_el config
              (run_plan ?defender { config with telemetry = None; causal = false } plan)
        in
        let rows =
          List.map2
            (fun plan r ->
              let obl = oblivious_el plan r in
              let ada = mean_el config r in
              {
                ar_plan = r.plan_name;
                ar_oblivious_el = obl;
                ar_adaptive_el = ada;
                ar_delta = ada -. obl;
                ar_directives = r.directives;
              })
            (Plan.none :: plans) (baseline :: runs)
        in
        Some { strategy_name = s.Adaptive.Strategy.name; rows }
  in
  let defend =
    match defender with
    | None -> None
    | Some (d : Controller.Strategy.t) ->
        let reference plan run =
          (* static is byte-identical to the undefended path, so its own
             runs double as the reference; other defenders pay one extra
             undefended pass per plan — holding the attacker constant, so
             the comparison varies only the defender *)
          if d.Controller.Strategy.name = Controller.Strategy.static.Controller.Strategy.name
          then run
          else run_plan ?strategy { config with telemetry = None; causal = false } plan
        in
        let drows =
          List.map2
            (fun plan r ->
              let base = reference plan r in
              let s_el = mean_el config base and d_el = mean_el config r in
              {
                dr_plan = r.plan_name;
                dr_static_el = s_el;
                dr_defended_el = d_el;
                dr_delta = d_el -. s_el;
                dr_static_avail = base.availability;
                dr_defended_avail = r.availability;
                dr_davail =
                  (match (base.availability, r.availability) with
                  | Some b, Some d -> Some (d -. b)
                  | _ -> None);
                dr_directives = r.defender_directives;
              })
            (Plan.none :: plans) (baseline :: runs)
        in
        Some { defender_name = d.Controller.Strategy.name; drows }
  in
  { config; baseline; runs; adapt; defend }

let el_means report =
  List.map
    (fun r -> (r.plan_name, mean_el report.config r))
    (report.baseline :: report.runs)

let monotone_non_increasing report =
  let rec check = function
    | a :: (b :: _ as rest) -> a +. 1e-9 >= b && check rest
    | _ -> true
  in
  check (List.map snd (el_means report))

let table report =
  let t =
    Table.create
      ~headers:
        [ "plan"; "EL (steps)"; "ci95"; "dEL"; "censored"; "avail"; "davail"; "link faults";
          "timeline"; "trace digest" ]
  in
  let base_el = mean_el report.config report.baseline in
  let base_av = report.baseline.availability in
  let row (r : run) =
    let lo, hi = r.el.Trial.ci95 in
    let el = mean_el report.config r in
    Table.add_row t
      [
        r.plan_name;
        Printf.sprintf "%.1f" el;
        Printf.sprintf "[%.1f, %.1f]" lo hi;
        (if r == report.baseline then "-" else Printf.sprintf "%+.1f" (el -. base_el));
        string_of_int r.el.Trial.censored;
        avail_str r.availability;
        (if r == report.baseline then "-" else davail_str base_av r.availability);
        string_of_int (Injector.stats_total r.faults);
        string_of_int r.faults.Injector.timeline_fired;
        r.digest;
      ]
  in
  row report.baseline;
  List.iter row report.runs;
  t

let fault_breakdown report =
  let t =
    Table.create
      ~headers:[ "plan"; "dropped"; "duplicated"; "reordered"; "corrupted"; "delayed" ]
  in
  List.iter
    (fun (r : run) ->
      let s = r.faults in
      Table.add_row t
        [
          r.plan_name;
          string_of_int s.Injector.dropped;
          string_of_int s.Injector.duplicated;
          string_of_int s.Injector.reordered;
          string_of_int s.Injector.corrupted;
          string_of_int s.Injector.delayed;
        ])
    (report.baseline :: report.runs);
  t

let timeline_table (r : run) =
  Option.map (fun (tl, sg) -> Signal.table ~timeline:tl sg) r.telemetry

let timeline_alarm_table (r : run) =
  Option.map (fun (_, sg) -> Signal.alarm_table sg) r.telemetry

let latency_table (r : run) = Option.map Latency.table r.latency

(* Service quality under load, one row per plan: logical counts from the
   workload plane plus the latency tail (virtual-time quantiles from the
   merged per-trial histograms). Present only when the run carried a
   [--load] workload. *)
let load_table report =
  match report.baseline.load with
  | None -> None
  | Some _ ->
      let t =
        Table.create
          ~headers:
            [ "plan"; "issued"; "answered"; "timed out"; "physical"; "avail"; "p50";
              "p99"; "p999" ]
      in
      let quantile_str s q =
        match Workload.quantile s q with
        | Some v -> Printf.sprintf "%.2f" v
        | None -> "-"
      in
      let row (r : run) =
        Option.iter
          (fun (s : Workload.stats) ->
            Table.add_row t
              [
                r.plan_name;
                string_of_int s.Workload.issued;
                string_of_int s.Workload.answered;
                string_of_int s.Workload.timed_out;
                string_of_int s.Workload.submitted;
                avail_str (Workload.availability s);
                quantile_str s 0.5;
                quantile_str s 0.99;
                quantile_str s 0.999;
              ])
          r.load
      in
      row report.baseline;
      List.iter row report.runs;
      Some t

let adapt_table (a : adapt) =
  let t =
    Table.create
      ~headers:[ "plan"; "EL oblivious"; "EL adaptive"; "dEL"; "directives" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.ar_plan;
          Printf.sprintf "%.1f" r.ar_oblivious_el;
          Printf.sprintf "%.1f" r.ar_adaptive_el;
          Printf.sprintf "%+.1f" r.ar_delta;
          string_of_int r.ar_directives;
        ])
    a.rows;
  t

let defend_table (d : defend) =
  let t =
    Table.create
      ~headers:
        [ "plan"; "EL static"; "EL defended"; "dEL"; "avail static"; "avail defended";
          "davail"; "directives" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.dr_plan;
          Printf.sprintf "%.1f" r.dr_static_el;
          Printf.sprintf "%.1f" r.dr_defended_el;
          Printf.sprintf "%+.1f" r.dr_delta;
          avail_str r.dr_static_avail;
          avail_str r.dr_defended_avail;
          (match r.dr_davail with Some d -> Printf.sprintf "%+.3f" d | None -> "-");
          string_of_int r.dr_directives;
        ])
    d.drows;
  t

(* {2 The 2x2 attacker/defender game} *)

type game_cell = {
  gc_plan : string;
  gc_attacker : string;
  gc_defender : string;
  gc_el : float;
  gc_availability : float option;
  gc_attack_directives : int;
  gc_defense_directives : int;
}

type game = {
  game_config : config;
  cells : game_cell list;  (** plan-major, attacker then defender within *)
  mdp_optimal : float;  (** model-level EL of the value-iteration policy *)
  mdp_static : float;  (** model-level EL of always-Hold *)
}

(* The full cross: {oblivious, adaptive} attacker x {static, adaptive}
   defender over each plan, on paired seeds (every cell replays the same
   per-index seed sequence, so cell deltas are paired comparisons). The
   static/oblivious row and column double as the undefended references —
   no extra passes needed. *)
let run_game ?(config = default_config)
    ?(attackers = [ Adaptive.Strategy.oblivious; Adaptive.Strategy.stale_key_rush ])
    ?(defenders = [ Controller.Strategy.static; Controller.Strategy.alarm_rekey ]) ~plans
    () =
  let config = { config with telemetry = None; causal = false } in
  let cells =
    List.concat_map
      (fun plan ->
        List.concat_map
          (fun (attacker : Adaptive.Strategy.t) ->
            List.map
              (fun (defender : Controller.Strategy.t) ->
                let r = run_plan ~strategy:attacker ~defender config plan in
                {
                  gc_plan = r.plan_name;
                  gc_attacker = attacker.Adaptive.Strategy.name;
                  gc_defender = defender.Controller.Strategy.name;
                  gc_el = mean_el config r;
                  gc_availability = r.availability;
                  gc_attack_directives = r.directives;
                  gc_defense_directives = r.defender_directives;
                })
              defenders)
          attackers)
      plans
  in
  {
    game_config = config;
    cells;
    mdp_optimal = Mdp.optimal_lifetime Mdp.default_model;
    mdp_static = Mdp.static_lifetime Mdp.default_model;
  }

let game_table (g : game) =
  let t =
    Table.create
      ~headers:
        [ "plan"; "attacker"; "defender"; "EL (steps)"; "dEL"; "avail"; "davail";
          "atk dirs"; "def dirs" ]
  in
  (* deltas are against the static-defender cell for the same plan and
     attacker — the defender's marginal contribution, attacker held fixed *)
  let static_cell plan attacker =
    List.find_opt
      (fun c -> c.gc_plan = plan && c.gc_attacker = attacker && c.gc_defender = "static")
      g.cells
  in
  List.iter
    (fun c ->
      let base = static_cell c.gc_plan c.gc_attacker in
      let delta f = match base with Some b -> Printf.sprintf "%+.3g" (f c -. f b) | None -> "-" in
      Table.add_row t
        [
          c.gc_plan;
          c.gc_attacker;
          c.gc_defender;
          Printf.sprintf "%.1f" c.gc_el;
          (if c.gc_defender = "static" then "-" else delta (fun c -> c.gc_el));
          avail_str c.gc_availability;
          (if c.gc_defender = "static" then "-"
           else
             match base with
             | Some b -> davail_str b.gc_availability c.gc_availability
             | None -> "-");
          string_of_int c.gc_attack_directives;
          string_of_int c.gc_defense_directives;
        ])
    g.cells;
  t
