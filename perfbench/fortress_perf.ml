(* The repository benchmark: seeded workloads driven through public entry
   points at jobs = 1, one workload per process.

     fortress_perf.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics. The run makes [passes] passes
   over a fixed number of steps (derived from --seconds, so the work is a
   function of the seed alone), and every step is scored by its fastest
   pass. Steps are timed in CPU time, each from a freshly collected heap.
   Other tenants of a shared host still slow it down, in spells from about
   a second to minutes; keeping the fastest of passes spread over the run
   filters the short ones, and re-running every step checks that each one
   reproduces its outputs.

   --trace 1 prints the per-layer metrics. It runs a fixed number of
   steps (derived from --seconds, so every count repeats exactly at one
   seed) twice: plain, with the benchmark's own spans and Gc counters, then
   again under the phase profiler with a counting event sink.

   Either way the run checks its outputs: at the default seed against
   pinned digests, at every seed against independent recomputation. The
   last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Inject = Fortress_exp.Inject
module Stack_driver = Fortress_exp.Stack_driver
module Plan = Fortress_faults.Plan
module Injector = Fortress_faults.Injector
module Workload = Fortress_load.Workload
module Trial = Fortress_mc.Trial
module Probe_level = Fortress_mc.Probe_level
module Systems = Fortress_model.Systems
module Knowledge = Fortress_attack.Knowledge
module Keyspace = Fortress_defense.Keyspace
module Prng = Fortress_util.Prng
module Profiler = Fortress_prof.Profiler
module Sink = Fortress_obs.Sink
module Event = Fortress_obs.Event

let now = Unix.gettimeofday
let default_seed = 1
let passes = 5

(* Set-up work (stack construction, the warm-up step) draws from this
   fixed seed rather than --seed, so set-up time is the same work at every
   workload seed. *)
let setup_seed = 7

(* Inject seed of step [i]: a pure function of (--seed, i). *)
let op_seed ~seed i = (seed * 10_000) + i

let timed clock f =
  let t0 = clock () in
  let v = f () in
  (clock () -. t0, v)

(* Steps, set-ups and standalone timings are measured in process CPU
   time, as bench/main.ml does: the run is single-threaded, and CPU time
   leaves out the spells the process waits while other tenants of a shared
   host run. Wall time times the traced phases, next to the profiler's
   wall-clock phases. *)
let cpu_time f = timed Sys.time f
let wall_time f = timed now f

(* ---- workloads ---- *)

type step = {
  ops : int;  (** ops completed by the step *)
  issued : int;  (** simulated requests issued (for error_rate) *)
  unserved : int;  (** of those, never answered *)
  check : string;  (** the step's outputs, one line; the check pins these *)
}

(* Per-layer tallies read from the library's results during a traced
   run's plain phase. *)
type tally = {
  mutable fortress_requests : int;
  mutable smr_requests : int;
  mutable fortress_timed_out : int;
  mutable smr_timed_out : int;
  mutable submitted : int;
  mutable link_faults : int;
}

let tally =
  { fortress_requests = 0; smr_requests = 0; fortress_timed_out = 0; smr_timed_out = 0;
    submitted = 0; link_faults = 0 }

let reset_tally () =
  tally.fortress_requests <- 0;
  tally.smr_requests <- 0;
  tally.fortress_timed_out <- 0;
  tally.smr_timed_out <- 0;
  tally.submitted <- 0;
  tally.link_faults <- 0

type workload = {
  name : string;
  plan : Plan.t;  (** the fault plan the workload's stacks run on *)
  stacks : (string * (module Stack_driver.S)) list;
      (** the stacks the workload drives; a set-up builds one of each *)
  warmup : unit -> string;
      (** one warm-up step at [setup_seed]; returns its output line *)
  step : ?sink:Sink.t -> seed:int -> int -> step;
  trials_per_step : int;  (** a trial_ms sample is a step's time / this *)
  check_steps : int;  (** the first steps whose outputs are pinned *)
  heap_steps : int;  (** peak heap is read after this many steps *)
  run_rate : float;
      (** untraced steps per requested second, sized so the passes take
          about 0.8 of --seconds on a 2-core VM *)
  trace_rate : float;
      (** traced steps per requested second, sized so a traced run takes
          about half of --seconds on a 2-core VM *)
  verify : seed:int -> step list -> string list;
      (** independent checks of the checked steps; returns mismatches *)
}

let el_string (r : Trial.result) =
  if r.Trial.censored > 0 then "censored" else Printf.sprintf "%.17g" r.Trial.mean

let avail_string = function None -> "n/a" | Some a -> Printf.sprintf "%.17g" a

let run_inject ?sink ~op stack cfg plan =
  match stack with
  | `Fortress -> Spans.record ~op "inject.run_plan" (fun () -> Inject.run_plan ?sink cfg plan)
  | `Smr -> Spans.record ~op "inject.run_smr_plan" (fun () -> Inject.run_smr_plan ?sink cfg plan)

let record_faults (r : Inject.run) =
  tally.link_faults <- tally.link_faults + Injector.stats_total r.Inject.faults

(* One Stack_driver construction: make, start obfuscation, fold the plan
   on; returns the injector-stats reader. *)
let build_stack (module D : Stack_driver.S) plan ~seed =
  let s = D.make ~chi:Inject.default_config.Inject.chi ~seed in
  D.start_obfuscation s ~period:100.0;
  D.install_plan s plan ~seed

let fortress_stack = ("fortress", (module Stack_driver.Fortress : Stack_driver.S))
let smr_stack = ("smr", (module Stack_driver.Smr : Stack_driver.S))

(* One set-up: one stack of each kind the workload drives, then the
   warm-up step, which builds its own config, plan and spec. *)
let setup (w : workload) =
  List.iter (fun (_, d) -> ignore (build_stack d w.plan ~seed:setup_seed ())) w.stacks;
  w.warmup ()

(* ---- mc-probe: probe-level Monte-Carlo, A2 ---- *)

(* A2's first row (chi = 1024, omega = 16, horizon 100 chi / omega): the
   same quadratic Knowledge sweep as the larger rows, at a trial cost that
   fits thousands of trials into one run. *)
let mc_cfg =
  let chi = 1024 and omega = 16 in
  { Probe_level.default with chi; omega; max_steps = 100 * chi / omega }

let mc_chunk = 10
let mc_systems = [ (Systems.S1_SO, "s1so"); (Systems.S0_SO, "s0so") ]

let mc_line tag (r : Trial.result) =
  Printf.sprintf "%s mean=%.17g censored=%d trials=%d" tag r.Trial.mean r.Trial.censored
    r.Trial.trials

(* One op is a trial pair: S1SO trial j and S0SO trial j of the step's
   chunk, the two cells of one A2 row, sharing op id [i * chunk + j]. A
   pair's cost is heavy-tailed and bimodal (the sweep turns quadratic once
   half the keys are gone), so single pairs make unsteady percentiles; a
   step of [mc_chunk] pairs is one trial_ms sample instead. The event sink
   is not passed on: obs does no work in this workload. *)
let mc_step ?sink:_ ~seed i =
  let lines =
    List.map
      (fun (system, tag) ->
        let j = ref 0 in
        let r =
          Trial.run ~trials:mc_chunk ~seed:(op_seed ~seed i)
            ~sampler:(fun prng ->
              let op = (i * mc_chunk) + !j in
              incr j;
              Spans.record ~op ("probe_level.lifetime." ^ tag) (fun () ->
                  Probe_level.lifetime system mc_cfg prng))
            ()
        in
        mc_line tag r)
      mc_systems
  in
  { ops = mc_chunk; issued = 0; unserved = 0; check = String.concat " " lines }

let mc_probe =
  {
    name = "mc-probe";
    plan = Plan.none;
    stacks = [];
    warmup = (fun () -> (mc_step ~seed:setup_seed 0).check);
    step = mc_step;
    trials_per_step = mc_chunk;
    check_steps = 1;
    heap_steps = 100;
    run_rate = 5.5;
    trace_rate = 12.0;
    verify =
      (fun ~seed steps ->
        (* the span wrapper must not change what the estimator computes *)
        List.concat
          (List.mapi
             (fun i (s : step) ->
               let expected =
                 String.concat " "
                   (List.map
                      (fun (system, tag) ->
                        mc_line tag
                          (Probe_level.estimate ~trials:mc_chunk ~seed:(op_seed ~seed i) system
                             mc_cfg))
                      mc_systems)
               in
               if expected = s.check then []
               else [ Printf.sprintf "step %d: %s <> Probe_level.estimate %s" i s.check expected ])
             steps));
  }

(* ---- campaign-chaos / campaign-traced: chaos-plan trials ---- *)

let chaos_cfg seed = { Inject.default_config with trials = 1; seed; jobs = 1 }
let traced_cfg seed = { (chaos_cfg seed) with causal = true; telemetry = Some 100.0 }

let campaign_line tag (r : Inject.run) =
  Printf.sprintf "%s digest=%s el=%s avail=%s" tag r.Inject.digest (el_string r.Inject.el)
    (avail_string r.Inject.availability)

let health_step (f : Inject.run) check =
  { ops = 1; issued = f.Inject.requests_issued;
    unserved = f.Inject.requests_issued - f.Inject.requests_answered; check }

(* One op is a matched trial pair: the fortress stack, then the SMR stack,
   on the same seed. *)
let chaos_step ?sink ~seed i =
  let cfg = chaos_cfg (op_seed ~seed i) in
  let f = run_inject ?sink ~op:i `Fortress cfg Plan.chaos in
  let s = run_inject ?sink ~op:i `Smr cfg Plan.chaos in
  record_faults f;
  record_faults s;
  health_step f (campaign_line "fortress" f ^ " " ^ campaign_line "smr" s)

(* Simulated requests were issued, and no more went unanswered than were
   issued. *)
let request_accounting ~seed:_ steps =
  List.concat_map
    (fun (s : step) ->
      if s.issued > 0 && s.unserved >= 0 && s.unserved <= s.issued then []
      else [ Printf.sprintf "inconsistent request accounting: %s" s.check ])
    steps

let campaign_chaos =
  {
    name = "campaign-chaos";
    plan = Plan.chaos;
    stacks = [ fortress_stack; smr_stack ];
    warmup = (fun () -> (chaos_step ~seed:setup_seed 0).check);
    step = chaos_step;
    trials_per_step = 1;
    check_steps = 8;
    heap_steps = 100;
    run_rate = 5.0;
    trace_rate = 9.0;
    verify = request_accounting;
  }

(* One op is the fortress half of a chaos op, traced. *)
let traced_step ?sink ~seed i =
  let f = run_inject ?sink ~op:i `Fortress (traced_cfg (op_seed ~seed i)) Plan.chaos in
  record_faults f;
  health_step f (campaign_line "traced" f)

let plain_fortress ~seed i = run_inject ~op:i `Fortress (chaos_cfg (op_seed ~seed i)) Plan.chaos

let campaign_traced =
  {
    name = "campaign-traced";
    plan = Plan.chaos;
    stacks = [ fortress_stack ];
    warmup = (fun () -> (traced_step ~seed:setup_seed 0).check);
    step = traced_step;
    trials_per_step = 1;
    check_steps = 8;
    heap_steps = 60;
    run_rate = 3.6;
    trace_rate = 4.4;
    verify =
      (fun ~seed steps ->
        (* tracing observes the simulation without changing it: each
           checked trial's EL equals the untraced fortress trial's *)
        request_accounting ~seed steps
        @ List.concat
            (List.mapi
               (fun i (s : step) ->
                 let plain = "el=" ^ el_string (plain_fortress ~seed i).Inject.el in
                 match String.split_on_char ' ' s.check with
                 | _ :: _ :: traced :: _ when traced = plain -> []
                 | _ -> [ Printf.sprintf "step %d: %s, untraced %s" i s.check plain ])
               steps));
  }

(* ---- load-podc: closed-loop clients on both stacks ---- *)

let podc_spec =
  match Workload.spec_of_string "closed:clients=32,think=50" with
  | Ok s -> s
  | Error e -> failwith e

(* 40 obfuscation periods (4000 vt): about a thousand requests per stack
   and trial, so a run holds a few dozen matched pairs. *)
let podc_horizon = 40

let podc_cfg ~max_steps seed =
  { Inject.default_config with trials = 1; seed; jobs = 1; omega = 0; max_steps;
    load = Some podc_spec }

let quantile_string st q =
  match Workload.quantile st q with Some v -> Printf.sprintf "%.17g" v | None -> "n/a"

let podc_line tag (r : Inject.run) (st : Workload.stats) =
  Printf.sprintf "%s digest=%s issued=%d answered=%d timed_out=%d p50=%s p99=%s p999=%s" tag
    r.Inject.digest st.Workload.issued st.Workload.answered st.Workload.timed_out
    (quantile_string st 0.5) (quantile_string st 0.99) (quantile_string st 0.999)

(* One op is one logical request; a step is a matched fortress + SMR
   trial pair on the same seed. *)
let podc_pair ?sink ~max_steps ~seed i =
  let cfg = podc_cfg ~max_steps (op_seed ~seed i) in
  let f = run_inject ?sink ~op:i `Fortress cfg Plan.lossy in
  let s = run_inject ?sink ~op:i `Smr cfg Plan.lossy in
  let fst = Option.get f.Inject.load and sst = Option.get s.Inject.load in
  tally.fortress_requests <- tally.fortress_requests + fst.Workload.issued;
  tally.smr_requests <- tally.smr_requests + sst.Workload.issued;
  tally.fortress_timed_out <- tally.fortress_timed_out + fst.Workload.timed_out;
  tally.smr_timed_out <- tally.smr_timed_out + sst.Workload.timed_out;
  tally.submitted <- tally.submitted + fst.Workload.submitted + sst.Workload.submitted;
  record_faults f;
  record_faults s;
  let issued = fst.Workload.issued + sst.Workload.issued in
  { ops = issued; issued;
    unserved = issued - fst.Workload.answered - sst.Workload.answered;
    check = podc_line "fortress" f fst ^ " " ^ podc_line "smr" s sst }

let load_podc =
  {
    name = "load-podc";
    plan = Plan.lossy;
    stacks = [ fortress_stack; smr_stack ];
    (* the warm-up pair runs a shortened horizon *)
    warmup = (fun () -> (podc_pair ~max_steps:4 ~seed:setup_seed 0).check);
    step = (fun ?sink ~seed i -> podc_pair ?sink ~max_steps:podc_horizon ~seed i);
    trials_per_step = 1;
    check_steps = 1;
    heap_steps = 6;
    run_rate = 0.24;
    trace_rate = 0.5;
    verify = request_accounting;
  }

let workloads = [ mc_probe; campaign_chaos; load_podc; campaign_traced ]

(* Digests of the checked steps' output lines at the default seed. *)
let pins =
  [
    ("mc-probe", "203f1dab4a913543");
    ("campaign-chaos", "30b79f88bbcf7359");
    ("load-podc", "14454733a96085f5");
    ("campaign-traced", "ad3c66a2dfca51bc");
  ]

(* ---- statistics ---- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let per x n = if n = 0 then 0.0 else x /. float_of_int n
let sum_by f l = List.fold_left (fun a x -> a + f x) 0 l

(* ---- running steps ---- *)

type outcome = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let fresh_outcome () = { attempted = 0; failed = 0; errors = [] }

(* Run step [i]; a step that raises counts as one failed op. *)
let run_step (w : workload) ?sink ~seed outcome i =
  match cpu_time (fun () -> w.step ?sink ~seed i) with
  | dt, s ->
      outcome.attempted <- outcome.attempted + s.ops;
      Some (dt, s)
  | exception e ->
      outcome.attempted <- outcome.attempted + 1;
      outcome.failed <- outcome.failed + 1;
      outcome.errors <- Printf.sprintf "step %d raised %s" i (Printexc.to_string e) :: outcome.errors;
      None

(* ---- the output check ---- *)

let check (w : workload) ~seed ~corrupt_pin ~problems steps =
  let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> [] in
  let checked = take w.check_steps steps in
  let lines = List.map (fun (s : step) -> s.check) checked in
  let digest = Sink.digest_lines lines in
  List.iteri (fun i l -> Printf.printf "check %s step %d: %s\n" w.name i l) lines;
  Printf.printf "check %s digest: %s (seed %d)\n" w.name digest seed;
  let problems = ref problems in
  let fail p = problems := !problems @ [ p ] in
  if List.length checked < w.check_steps then
    fail (Printf.sprintf "only %d of %d checked steps ran" (List.length checked) w.check_steps);
  List.iter fail (w.verify ~seed checked);
  if seed = default_seed then begin
    let pinned = List.assoc w.name pins in
    let pinned = if corrupt_pin then "corrupted-" ^ pinned else pinned in
    if pinned <> digest then fail (Printf.sprintf "digest %s <> pinned %s" digest pinned)
  end
  else print_endline "check: non-default seed, digest printed but not pinned";
  List.iter (fun p -> Printf.printf "CHECK FAILED (%s): %s\n" w.name p) !problems;
  !problems = []

(* ---- output ---- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit_)
         metrics)
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed body;
  print_newline ()

let print_table metrics =
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-34s %16.6f %s\n" name v unit_) metrics

(* ---- untraced run: the end-to-end metrics ---- *)

(* Each pass sets up this many times, at fixed steps spread over it. *)
let setups_per_pass = 5

let untraced (w : workload) ~seed ~seconds ~corrupt_pin =
  let outcome = fresh_outcome () in
  let n = max (max w.check_steps w.heap_steps) (int_of_float (Float.round (seconds *. w.run_rate))) in
  let setup_every = max 1 (n / setups_per_pass) in
  (* Every step and set-up starts from a collected heap, so its time does
     not depend on the garbage that earlier work left behind; the
     collection itself is not timed. *)
  let settle () = Gc.full_major () in
  (* set-up point [k] runs before step [k * setup_every] of every pass *)
  let setup_times = Array.make_matrix passes ((n + setup_every - 1) / setup_every) 0.0 in
  let warmups = ref [] in
  let setup pass k =
    settle ();
    let dt, line = cpu_time (fun () -> setup w) in
    setup_times.(pass).(k) <- dt;
    warmups := line :: !warmups
  in
  (* Set-ups and steps run in the same order at every seed, so the peak
     heap, read after [heap_steps] steps of pass 1, depends on the seed
     alone. A step keeps its fastest time over the passes. *)
  let first = Array.make n None and best = Array.make n Float.infinity in
  let peak_heap_words = ref 0 and problems = ref [] in
  for pass = 0 to passes - 1 do
    for i = 0 to n - 1 do
      if i mod setup_every = 0 then setup pass (i / setup_every);
      settle ();
      (match run_step w ~seed outcome i with
      | Some (dt, s) -> (
          best.(i) <- Float.min best.(i) dt;
          match first.(i) with
          | None -> first.(i) <- Some s
          | Some s0 when s0.check <> s.check ->
              problems := Printf.sprintf "step %d not reproducible: %s <> %s" i s0.check s.check :: !problems
          | Some _ -> ())
      | None -> ());
      if pass = 0 && i + 1 = w.heap_steps then
        peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words
    done
  done;
  let steps = List.filter_map Fun.id (Array.to_list first) in
  let best = List.filter Float.is_finite (Array.to_list best) in
  let ops = sum_by (fun (s : step) -> s.ops) steps in
  let wall = List.fold_left ( +. ) 0.0 best in
  let samples_ms = List.map (fun dt -> 1000.0 *. dt /. float_of_int w.trials_per_step) best in
  let issued = sum_by (fun (s : step) -> s.issued) steps in
  let unserved = sum_by (fun (s : step) -> s.unserved) steps in
  let setup_ok = List.for_all (( = ) (List.hd !warmups)) !warmups in
  if not setup_ok then problems := "warm-up steps of repeated set-ups differ" :: !problems;
  let correct =
    check w ~seed ~corrupt_pin ~problems:(List.rev outcome.errors @ List.rev !problems) steps
  in
  (* like a step, each set-up point keeps its fastest pass; setup_s is the
     median over the points *)
  let setup_best =
    Array.to_list
      (Array.mapi
         (fun k _ -> Array.fold_left (fun a times -> Float.min a times.(k)) Float.infinity setup_times)
         setup_times.(0))
  in
  let setup_s = median setup_best in
  let metrics =
    [
      ("ops_per_s", "ops/s", float_of_int ops /. wall);
      ("trial_ms_p50", "ms", percentile 0.5 samples_ms);
      ("trial_ms_p90", "ms", percentile 0.9 samples_ms);
      ("peak_heap_mb", "MB", float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      ("setup_s", "s", setup_s);
    ]
  in
  Printf.printf "%s: %d steps (%d ops, %d trial_ms samples), best of %d passes: %.3f CPU s\n"
    w.name (List.length steps) ops (List.length samples_ms) passes wall;
  Printf.printf "  peak heap read after %d steps; set-ups by pass took %s s\n" w.heap_steps
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun a -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") a)))
             setup_times)));
  Printf.printf "  %-34s %16.6f ratio (%d of %d simulated requests unanswered, %d steps raised)\n"
    "error_rate"
    (per (float_of_int (unserved + outcome.failed)) (max 1 issued))
    unserved issued outcome.failed;
  print_table metrics;
  (correct, outcome, metrics)

(* ---- traced run: the per-layer metrics ---- *)

(* Counting subscriber: all events, finished spans, and replication
   events (Repl, Failover) by protocol. *)
type counts = { mutable events : int; mutable spans : int; mutable pb_repl : int; mutable smr_repl : int }

let counting_subscriber c ~time:_ ev =
  c.events <- c.events + 1;
  match ev with
  | Event.Span_finished _ -> c.spans <- c.spans + 1
  | Event.Repl { proto; _ } | Event.Failover { proto; _ } ->
      if proto = "pb" then c.pb_repl <- c.pb_repl + 1
      else if proto = "smr" then c.smr_repl <- c.smr_repl + 1
  | _ -> ()

(* Eliminate every key of A2's middle-row key space, one guess at a time. *)
let knowledge_sweep () =
  let prng = Prng.create ~seed:setup_seed in
  let k = Knowledge.create (Keyspace.of_size 4096) in
  let rec go () =
    match Knowledge.next_guess k prng with
    | Some guess ->
        Knowledge.observe_crash k ~guess;
        go ()
    | None -> ()
  in
  go ()

let median_time reps f = median (List.init reps (fun _ -> fst (cpu_time f)))

let traced (w : workload) ~seed ~seconds ~corrupt_pin ~spans_path ~env =
  ignore (setup w);
  let n = max w.check_steps (int_of_float (Float.round (seconds *. w.trace_rate))) in
  (* standalone timings, only of the layers this workload uses *)
  let sweep_ms = if w.name = mc_probe.name then 1000.0 *. median_time 5 knowledge_sweep else 0.0 in
  let make_us stack =
    match List.assoc_opt stack w.stacks with
    | Some d -> 1e6 *. median_time 20 (fun () -> ignore (build_stack d w.plan ~seed:setup_seed ()))
    | None -> 0.0
  in
  let fortress_make_us = make_us "fortress" in
  let smr_make_us = make_us "smr" in
  let run_all ?sink outcome =
    wall_time (fun () ->
        List.filter_map (fun i -> Option.map snd (run_step w ?sink ~seed outcome i)) (List.init n Fun.id))
  in
  (* plain phase: the benchmark's spans, Gc counters and result tallies *)
  reset_tally ();
  let outcome = fresh_outcome () in
  Spans.enable ~epoch:(now ());
  let minor0 = Gc.minor_words () and q0 = Gc.quick_stat () in
  let wall_plain, plain = run_all outcome in
  let minor1 = Gc.minor_words () and q1 = Gc.quick_stat () in
  Spans.disable ();
  let ta = { tally with submitted = tally.submitted } in
  let ops = sum_by (fun (s : step) -> s.ops) plain in
  (* campaign-traced only: the same seeds without tracing *)
  let traced_cost_ratio =
    if w.name = campaign_traced.name then
      wall_plain /. fst (wall_time (fun () -> for i = 0 to n - 1 do ignore (plain_fortress ~seed i) done))
    else 0.0
  in
  (* profiled phase: the same steps under the profiler and a counting sink *)
  let counts = { events = 0; spans = 0; pb_repl = 0; smr_repl = 0 } in
  let sink = Sink.create () in
  ignore (Sink.attach sink (counting_subscriber counts));
  Profiler.reset ();
  Profiler.enable ();
  let profiled_outcome = fresh_outcome () in
  let wall_profiled, profiled = run_all ~sink profiled_outcome in
  Profiler.disable ();
  let phases = Profiler.snapshot () in
  let phase name =
    match List.find_opt (fun (e : Profiler.entry) -> e.Profiler.name = name) phases with
    | Some e -> e
    | None -> { Profiler.name; count = 0; total_s = 0.0; self_s = 0.0; self_minor_words = 0.0 }
  in
  let per_op name = per (float_of_int (phase name).Profiler.count) ops in
  let per_call f name = per (f (phase name)) (phase name).Profiler.count in
  let self_ns = per_call (fun e -> 1e9 *. e.Profiler.self_s) in
  let attributed = List.fold_left (fun a (e : Profiler.entry) -> a +. e.Profiler.self_s) 0.0 phases in
  let span_sum name = List.fold_left ( +. ) 0.0 (Spans.durations name) in
  let span_mean name = per (span_sum name) (List.length (Spans.durations name)) in
  let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let count_per_op c = per (float_of_int c) ops in
  let metrics =
    [
      ("engine.events_per_op", "count/op", per_op "engine.fire");
      ("engine.self_ns_per_event", "ns", self_ns "engine.fire");
      ("net.sends_per_op", "count/op", per_op "net.send");
      ("net.send_ns", "ns", self_ns "net.send");
      ("net.send_words", "words", per_call (fun e -> e.Profiler.self_minor_words) "net.send");
      ("net.deliver_self_ns", "ns", self_ns "net.deliver");
      ("crypto.sha256_per_op", "count/op", per_op "crypto.sha256");
      ("crypto.sha256_ns", "ns", self_ns "crypto.sha256");
      ("crypto.hmac_per_op", "count/op", per_op "crypto.hmac");
      ("crypto.hmac_ns", "ns", self_ns "crypto.hmac");
      ("attack.probes_per_op", "count/op", per_op "attack.probe");
      ("attack.probe_ns", "ns", self_ns "attack.probe");
      ("knowledge.sweep_ms", "ms", sweep_ms);
      ("mc.s1so_trial_ms", "ms", 1000.0 *. span_mean "probe_level.lifetime.s1so");
      ("mc.s0so_trial_ms", "ms", 1000.0 *. span_mean "probe_level.lifetime.s0so");
      ("deployment.make_us", "us", fortress_make_us);
      ("smr_deployment.make_us", "us", smr_make_us);
      ("inject.fortress_trial_ms", "ms", 1000.0 *. span_mean "inject.run_plan");
      ("inject.smr_trial_ms", "ms", 1000.0 *. span_mean "inject.run_smr_plan");
      ("workload.fortress_us_per_request", "us", per (1e6 *. span_sum "inject.run_plan") ta.fortress_requests);
      ("workload.smr_us_per_request", "us", per (1e6 *. span_sum "inject.run_smr_plan") ta.smr_requests);
      ("workload.submitted_per_issued", "ratio", share ta.submitted (ta.fortress_requests + ta.smr_requests));
      ("workload.fortress_timeout_share", "ratio", share ta.fortress_timed_out ta.fortress_requests);
      ("workload.smr_timeout_share", "ratio", share ta.smr_timed_out ta.smr_requests);
      ("injector.link_faults_per_op", "count/op", count_per_op ta.link_faults);
      ("pb.repl_events_per_op", "count/op", count_per_op counts.pb_repl);
      ("smr.repl_events_per_op", "count/op", count_per_op counts.smr_repl);
      ("obs.events_per_op", "count/op", count_per_op counts.events);
      ("obs.spans_per_op", "count/op", count_per_op counts.spans);
      ("obs.traced_cost_ratio", "ratio", traced_cost_ratio);
      ("gc.minor_words_per_op", "words/op", per (minor1 -. minor0) ops);
      ("gc.promoted_words_per_op", "words/op", per (q1.Gc.promoted_words -. q0.Gc.promoted_words) ops);
      ("gc.major_collections_per_op", "count/op", count_per_op (q1.Gc.major_collections - q0.Gc.major_collections));
      ("prof.overhead_ratio", "ratio", wall_profiled /. wall_plain);
      ("prof.unattributed_share", "ratio", Float.max 0.0 (1.0 -. (attributed /. wall_profiled)));
    ]
  in
  Printf.printf "%s traced: %d steps, %d ops; plain %.3f s, profiled %.3f s\n" w.name n ops
    wall_plain wall_profiled;
  print_string (Profiler.render ());
  print_table metrics;
  Spans.write spans_path ~header:env;
  Printf.printf "spans: %d written to %s\n" (List.length (Spans.all ())) spans_path;
  let lines steps = List.map (fun (s : step) -> s.check) steps in
  let problems =
    List.rev outcome.errors @ List.rev profiled_outcome.errors
    @ if lines plain = lines profiled then [] else [ "profiled steps differ from plain steps" ]
  in
  let correct = check w ~seed ~corrupt_pin ~problems plain in
  outcome.attempted <- outcome.attempted + profiled_outcome.attempted;
  outcome.failed <- outcome.failed + profiled_outcome.failed;
  (correct, outcome, metrics)

(* ---- entry point ---- *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref 0 and commit = ref "unknown" and corrupt_pin = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1; digests are pinned at it)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--nproc", Arg.Set_int nproc, "N processors online, for the environment record");
      ("--commit", Arg.Set_string commit, "SHA source commit, for the environment record");
      ("--corrupt-pin", Arg.Set corrupt_pin, " check against a deliberately wrong pin");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fortress_perf.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; one of: "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let env =
    Printf.sprintf
      {|{"workload": "%s", "seed": %d, "trace": %d, "nproc": %d, "domains_available": %d, "ocaml": "%s", "commit": "%s"}|}
      w.name !seed !trace !nproc
      (Domain.recommended_domain_count ())
      Sys.ocaml_version !commit
  in
  Printf.printf "env %s\n%!" env;
  let correct, outcome, metrics =
    if !trace = 0 then untraced w ~seed:!seed ~seconds:!seconds ~corrupt_pin:!corrupt_pin
    else begin
      (* spans go inside the working tree, next to the build *)
      let out_dir = ".perfbench_out" in
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let spans_path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" w.name !seed) in
      traced w ~seed:!seed ~seconds:!seconds ~corrupt_pin:!corrupt_pin ~spans_path ~env
    end
  in
  (* a failed check fails every op of the run *)
  let attempted = max 1 outcome.attempted in
  let failed = if correct then outcome.failed else attempted in
  emit_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
