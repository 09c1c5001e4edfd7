(* The reproduction's benchmark: times and prints every entry of
   Fortress_exp.Artefact (Figures 1-2, the section-6 ordering, the
   ablations, V1/V2 and the tables around them) as one wall-clock section
   each, then measures the cost of every plane built around them -- event
   throughput, interceptor and profiler overhead, pooled speedup, the
   same-process overhead ratios and workload throughput -- and writes
   BENCH_fortress.json, which .github/scripts/bench_compare.py gates
   against bench/baseline.json.

   Run with: dune exec bench/main.exe [-- --speedup-only] *)

module Systems = Fortress_model.Systems
module Step_level = Fortress_mc.Step_level
module Validation = Fortress_exp.Validation
module Artefact = Fortress_exp.Artefact

(* ---- wall-clock section timings and the machine-readable report ---- *)

let sections : (string * float) list ref = ref []

let section name f =
  Printf.printf "== %s ==\n" name;
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  sections := (name, dt) :: !sections;
  print_endline ""

(* The one timing discipline of every single-threaded best-of-N section:
   run the [shapes] [passes] times, in list order on odd passes and in
   reverse on even ones, collect garbage before each timed region so no
   shape pays another's heap down, and keep each shape's minimum. Noise is
   strictly additive -- an interrupted run reads slower, never faster --
   so the min converges on a shape's true cost, where a one-shot time or a
   median of per-pass ratios still gates on jitter. The reversal cancels
   linear drift (throttled machines slow down under sustained load) out of
   every min, where a fixed order would tax the shape that always runs
   last. [check] gets each pass's results in shape order and raises if
   they diverge. The default clock is process CPU time: the sections are
   single-threaded, so it measures the same work while staying immune to
   preemption by other tenants, the dominant noise on shared runners.
   Returns each shape's min seconds and the last pass's results. *)
let best_of ?(clock = Sys.time) ~passes ~check shapes =
  let shapes = Array.of_list shapes in
  let n = Array.length shapes in
  let best = Array.make n infinity and last = ref [] in
  for pass = 1 to passes do
    let results = Array.make n None in
    for k = 0 to n - 1 do
      let i = if pass land 1 = 1 then k else n - 1 - k in
      Gc.full_major ();
      let t0 = clock () in
      let r = shapes.(i) () in
      best.(i) <- Float.min best.(i) (clock () -. t0);
      results.(i) <- Some r
    done;
    let results = List.map Option.get (Array.to_list results) in
    check results;
    (* keep no earlier pass's results alive during the next one *)
    if pass = passes then last := results
  done;
  (Array.to_list best, !last)

let ratio num den = if den > 0.0 then num /. den else 0.0

(* A [check] half for results that must not change from pass to pass:
   the returned function fails on any value unequal to its first. *)
let same_across_passes what =
  let first = ref None in
  fun v ->
    match !first with
    | None -> first := Some v
    | Some v0 ->
        if v <> v0 then
          failwith (Printf.sprintf "%s not byte-identical across passes: %s <> %s" what v v0)

(* Event throughput of the instrumented stack: one packet-level campaign
   with a counting subscriber attached. A single campaign is only a few
   tens of milliseconds, so the reported figure is the best of five
   passes: the gate in bench_compare.py sees the stack's actual
   throughput, not the slowest interruption. *)
let measure_event_throughput () =
  let module Sink = Fortress_obs.Sink in
  let campaign () =
    let events = ref 0 in
    let sink = Sink.create () in
    ignore (Sink.attach sink (fun ~time:_ _ -> incr events));
    ignore (Validation.campaign_lifetime ~sink ~chi:256 ~omega:8 ~kappa:0.5 ~seed:11 ());
    !events
  in
  let same = same_across_passes "event count" in
  match best_of ~passes:5 ~check:(List.iter (fun n -> same (string_of_int n))) [ campaign ] with
  | [ seconds ], [ events ] -> (events, seconds)
  | _ -> assert false

(* Interceptor overhead on the hot [Network.send] path: per-message cost of
   the fault layer in its three configurations — absent (no plan installed),
   installed but always [Pass], and the lossy built-in's link spec. Minor-
   heap words per message show what each layer allocates; the no-plan row is
   the pre-fault-subsystem send path, so pass/lossy deltas against it are
   the whole cost of the feature. *)
let measure_interceptor_overhead () =
  let module Engine = Fortress_sim.Engine in
  let module Network = Fortress_net.Network in
  let module Latency = Fortress_net.Latency in
  let module Injector = Fortress_faults.Injector in
  let module Plan = Fortress_faults.Plan in
  let messages = 200_000 in
  let run name config =
    let engine = Engine.create ~prng:(Fortress_util.Prng.create ~seed:9) () in
    let net = Network.create ~latency:(Latency.constant 0.1) engine in
    let a = Network.register net ~name:"a" ~handler:(fun ~src:_ (_ : int) -> ()) in
    let b = Network.register net ~name:"b" ~handler:(fun ~src:_ (_ : int) -> ()) in
    (match config with
    | `No_plan -> ()
    | `Pass -> Network.set_interceptor net (Some (fun ~src:_ ~dst:_ _ -> Network.Pass))
    | `Lossy ->
        let stats = Injector.fresh_stats () in
        let prng = Injector.derive_prng ~seed:9 in
        Network.set_interceptor net
          (Some (Injector.link_interceptor ~engine ~prng ~stats Plan.lossy.Plan.link)));
    (* warm-up round so both paths are compiled and caches primed *)
    for i = 1 to 1_000 do
      Network.send net ~src:a ~dst:b i
    done;
    Engine.run engine;
    Gc.minor ();
    let words0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 1 to messages do
      Network.send net ~src:a ~dst:b i;
      (* drain in batches so the event heap stays small and resident *)
      if i land 4095 = 0 then Engine.run engine
    done;
    Engine.run engine;
    let dt = Unix.gettimeofday () -. t0 in
    let words = (Gc.minor_words () -. words0) /. float_of_int messages in
    (name, dt /. float_of_int messages *. 1e9, words)
  in
  [ run "no-plan" `No_plan; run "pass-interceptor" `Pass; run "lossy-link" `Lossy ]

(* Profiler overhead at an instrumented call site, in its three
   configurations — disabled (the default), enabled, and enabled with the
   sample ring on. The workload allocates nothing itself, so the disabled
   row's minor-words column is the entire per-call allocation cost of
   compiling the profiler in: it must be zero (the guard is one bool read
   and no closure), which is what keeps seeded runs byte-identical whether
   or not fortress_prof is linked. *)
let measure_profiler_overhead () =
  let module Prof = Fortress_prof.Profiler in
  let phase = Prof.register "bench.overhead" in
  let calls = 1_000_000 in
  let acc = ref 0 in
  let work () = acc := Sys.opaque_identity (!acc + 1) in
  let run name config =
    (match config with
    | `Disabled ->
        Prof.disable ();
        Prof.set_sample_capacity 0
    | `Enabled ->
        Prof.reset ();
        Prof.set_sample_capacity 0;
        Prof.enable ()
    | `Sampling ->
        Prof.reset ();
        Prof.set_sample_capacity 4096;
        Prof.enable ());
    (* the guard below is the exact shape of every instrumented site *)
    let site () = if Prof.is_enabled () then Prof.record phase work else work () in
    for _ = 1 to 1_000 do
      site ()
    done;
    Gc.minor ();
    let words0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      site ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let words = (Gc.minor_words () -. words0) /. float_of_int calls in
    Prof.disable ();
    Prof.reset ();
    (name, dt /. float_of_int calls *. 1e9, words)
  in
  [ run "disabled" `Disabled; run "enabled" `Enabled; run "enabled+sampling" `Sampling ]

(* Domain-parallel Monte-Carlo speedup: the step-level sampler at a fixed
   operating point, fanned over 1, 2 and 4 lanes of the persistent domain
   pool. The runner guarantees bit-identical results at every job count
   (trials partitioned by index, per-trial PRNGs derived from the index,
   outcomes consumed in index order at the join), so the mean is asserted
   equal across rows and only the wall clock may differ. Speedup is
   relative to the jobs=1 row; the executor never runs more lanes than the
   machine has cores, so on a single-core box every row is ~1.0x — the
   report's [domains_available] field tells the CI gate whether the
   2x/1.3x floors are enforceable on this hardware. *)
let measure_parallel_speedup () =
  let trials = 3000 in
  let cfg = { Step_level.default with alpha = 3e-3 } in
  (* warm the pool first: worker domains are spawned once per process, and
     that one-time cost belongs to no timed row *)
  ignore (Step_level.estimate ~jobs:4 ~trials:200 ~seed:1 Systems.S2_PO cfg);
  let run jobs =
    (* best of three passes per row: a single pass is ~100 ms, where one
       scheduler preemption reads as a phantom 20% slowdown; noise is
       additive, so the min converges on true throughput *)
    let best_dt = ref infinity and mean = ref nan in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let res = Step_level.estimate ~jobs ~trials ~seed:42 Systems.S2_PO cfg in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best_dt then best_dt := dt;
      mean := res.Fortress_mc.Trial.mean
    done;
    (jobs, !best_dt, !mean)
  in
  let rows = List.map run [ 1; 2; 4 ] in
  let base_mean = match rows with (_, _, m) :: _ -> m | [] -> nan in
  List.iter
    (fun (jobs, _, mean) ->
      if mean <> base_mean then
        failwith
          (Printf.sprintf
             "parallel determinism violated: jobs=%d mean %.17g <> jobs=1 mean %.17g" jobs
             mean base_mean))
    rows;
  let base_dt = match rows with (_, dt, _) :: _ -> dt | [] -> nan in
  List.map
    (fun (jobs, dt, mean) ->
      let tps = if dt > 0.0 then float_of_int trials /. dt else 0.0 in
      let speedup = if dt > 0.0 then base_dt /. dt else 0.0 in
      (jobs, tps, speedup, mean))
    rows

(* The gated same-process overhead ratios: base and variant shapes on
   [best_of], their digests asserted equal every pass so the ratio
   min(variant)/min(base) compares identical work. *)
let paired_overhead ~passes ~mismatch base variant =
  let check = function [ b; v ] -> if b <> v then failwith (mismatch v b) | _ -> assert false in
  match best_of ~passes ~check [ base; variant ] with
  | [ base_s; variant_s ], _ -> (base_s, variant_s, ratio variant_s base_s)
  | _ -> assert false

(* Telemetry-plane overhead: the same seeded packet-level campaign twice,
   once with only a digesting subscriber and once with a Timeline plus
   streaming Signal detectors attached to the same sink (alarms not
   emitted, so the event stream is untouched). The plane is a pure
   observer — the digests are asserted equal, making the ratio an
   apples-to-apples measure of the subscriber cost alone. *)
let measure_timeline_overhead () =
  let module Sink = Fortress_obs.Sink in
  let module Timeline = Fortress_obs.Timeline in
  let module Signal = Fortress_obs.Signal in
  let pass ~telemetry () =
    let sink = Sink.create () in
    let sub, digest_of = Sink.digesting () in
    ignore (Sink.attach sink sub);
    let tl =
      if telemetry then begin
        let tl = Timeline.create ~width:100.0 () in
        ignore (Sink.attach sink (Timeline.subscriber tl));
        ignore (Signal.create tl);
        Some tl
      end
      else None
    in
    (* 16 campaigns per pass: the timed region must be long enough that
       the gate resolves the plane's few-percent cost above timer floor *)
    for seed = 11 to 26 do
      ignore (Validation.campaign_lifetime ~sink ~chi:256 ~omega:8 ~kappa:0.5 ~seed ())
    done;
    Option.iter Timeline.finish tl;
    digest_of ()
  in
  (* warm-up so both shapes are compiled before timing *)
  ignore (pass ~telemetry:false ());
  ignore (pass ~telemetry:true ());
  paired_overhead ~passes:9
    ~mismatch:(fun v b ->
      Printf.sprintf "telemetry subscriber perturbed the trace: %s <> %s" v b)
    (pass ~telemetry:false) (pass ~telemetry:true)

(* Adaptive-campaign overhead: the oblivious strategy runs the full
   observe–decide–act loop (symptom sampling, observation assembly, a
   boundary hook that always answers "unchanged") yet must stay
   byte-identical to the fixed-schedule path and within a few percent of
   its cost — that overhead is the price every legacy caller pays for the
   adaptive machinery existing at all. Both passes run in this process on
   the same paired seeds; the digests are asserted equal so the ratio
   compares identical work. *)
let measure_adaptive_overhead () =
  let module Inject = Fortress_exp.Inject in
  let module Plan = Fortress_faults.Plan in
  let module Adaptive = Fortress_attack.Adaptive in
  let config = { Inject.default_config with trials = 8; chi = 256; seed = 42 } in
  (* warm-up pass so both code paths are compiled and the minor heap is primed *)
  ignore (Inject.run_plan { config with trials = 2 } Plan.lossy);
  ignore
    (Inject.run_plan ~strategy:Adaptive.Strategy.oblivious { config with trials = 2 }
       Plan.lossy);
  paired_overhead ~passes:9
    ~mismatch:(fun v b ->
      Printf.sprintf "oblivious strategy diverged from the fixed schedule: %s <> %s" v b)
    (fun () -> (Inject.run_plan config Plan.lossy).Inject.digest)
    (fun () ->
      (Inject.run_plan ~strategy:Adaptive.Strategy.oblivious config Plan.lossy).Inject.digest)

(* Defender-controller overhead: the static strategy attaches the full
   sensing stack (an extra in-trial timeline + signal plane, observation
   assembly every boundary, a decide that always answers "unchanged") yet
   must stay byte-identical to the undefended path and within a few
   percent of its cost — the price the control loop charges when it never
   acts. Same paired-pass shape as measure_adaptive_overhead. *)
let measure_defender_overhead () =
  let module Inject = Fortress_exp.Inject in
  let module Plan = Fortress_faults.Plan in
  let module Controller = Fortress_defense.Controller in
  let config = { Inject.default_config with trials = 8; chi = 256; seed = 42 } in
  ignore (Inject.run_plan { config with trials = 2 } Plan.lossy);
  ignore
    (Inject.run_plan ~defender:Controller.Strategy.static { config with trials = 2 }
       Plan.lossy);
  paired_overhead ~passes:9
    ~mismatch:(fun v b ->
      Printf.sprintf "static defender diverged from the undefended run: %s <> %s" v b)
    (fun () -> (Inject.run_plan config Plan.lossy).Inject.digest)
    (fun () ->
      (Inject.run_plan ~defender:Controller.Strategy.static config Plan.lossy).Inject.digest)

(* Causal-tracing overhead: the same seeded chaos campaign three times
   per pass on [best_of] — tracing off, tracing on (span plumbing +
   latency extraction live), then off again, reversed on even passes. The
   GATED ratio is min(off2)/min(off1): once the causal machinery has run,
   the disabled path must cost what it did before (the per-send
   [Engine.causal] check is one option read; no state lingers). The
   traced ratio is reported for information — spans add real event
   volume, so a tight bound there would gate the feature's value, not a
   regression. The off-pass digests are asserted identical across passes
   (byte-identity of the disabled path) and the traced run's EL is
   asserted equal to the plain one (tracing is a pure observer of the
   simulated world). *)
let measure_causal_overhead () =
  let module Inject = Fortress_exp.Inject in
  let module Plan = Fortress_faults.Plan in
  let config = { Inject.default_config with trials = 8; chi = 256; seed = 42 } in
  let traced_config = { config with causal = true } in
  ignore (Inject.run_plan { config with trials = 2 } Plan.chaos);
  ignore (Inject.run_plan { traced_config with trials = 2 } Plan.chaos);
  let off () = Inject.run_plan config Plan.chaos in
  let same = same_across_passes "causal-off path" in
  let check = function
    | [ (off1 : Inject.run); traced; off2 ] ->
        List.iter (fun (r : Inject.run) -> same r.Inject.digest) [ off1; off2 ];
        let el_off = Inject.mean_el config off1 in
        let el_on = Inject.mean_el traced_config traced in
        if el_off <> el_on then
          failwith
            (Printf.sprintf "causal tracing perturbed the simulation: EL %.17g <> %.17g" el_on
               el_off)
    | _ -> assert false
  in
  match
    best_of ~passes:7 ~check [ off; (fun () -> Inject.run_plan traced_config Plan.chaos); off ]
  with
  | [ off1_s; traced_s; off2_s ], _ ->
      (off1_s, traced_s, ratio off2_s off1_s, ratio traced_s off1_s)
  | _ -> assert false

(* Workload-plane throughput: a fixed closed-loop population driven
   through [Inject.run_plan] on the fortress stack. The logical request
   counts and virtual-time quantiles are deterministic (pinned exactly by
   bench_compare.py); only requests-per-second is a measurement, so it
   alone carries a tolerance. It is taken on the wall clock, like the
   report field and the baseline it is compared with. *)
let measure_workload_throughput () =
  let module Inject = Fortress_exp.Inject in
  let module Workload = Fortress_load.Workload in
  let module Plan = Fortress_faults.Plan in
  let spec =
    match Workload.spec_of_string "closed:clients=32,think=50" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let config = { Inject.default_config with trials = 6; load = Some spec } in
  let run () = Inject.run_plan config Plan.lossy in
  ignore (run ());
  let same = same_across_passes "workload pass digest" in
  match
    best_of ~clock:Unix.gettimeofday ~passes:3
      ~check:(List.iter (fun (r : Inject.run) -> same r.Inject.digest))
      [ run ]
  with
  | [ best ], [ r ] ->
      let stats = Option.get r.Inject.load in
      let quantile q = Option.value ~default:0.0 (Workload.quantile stats q) in
      ( ratio (float_of_int stats.Workload.issued) best,
        stats.Workload.issued,
        stats.Workload.answered,
        quantile 0.5,
        quantile 0.99,
        Option.value ~default:0.0 r.Inject.availability )
  | _ -> assert false

(* The two long Monte-Carlo artefacts (A2, V1) run through the domain pool
   at [default_jobs]; their tables are asserted against FNV digests of the
   committed sequential output, so the bench itself is the first
   large-scale determinism gate for the pooled executor. *)
let assert_digest ~name ~expected rendered =
  let got = Fortress_obs.Sink.digest_lines [ rendered ] in
  if got <> expected then
    failwith
      (Printf.sprintf "%s changed under the pool: digest %s <> committed %s" name got
         expected)

let pinned_digests = [ ("a2", "36332ece1ea6a53d"); ("v1", "2b6543a3732f15b0") ]

let speedup_rows_json speedup =
  let module J = Fortress_obs.Json in
  J.List
    (List.map
       (fun (jobs, tps, sp, mean) ->
         J.Obj
           [
             ("jobs", J.Num (float_of_int jobs));
             ("trials_per_sec", J.Num tps);
             ("speedup_vs_1", J.Num sp);
             ("mean_el", J.Num mean);
           ])
       speedup)

let write_json ~path json =
  let oc = open_out path in
  output_string oc (Fortress_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

let print_speedup_rows speedup =
  Printf.printf "== domain-parallel Monte-Carlo speedup (step-level, 3000 trials) ==\n";
  List.iter
    (fun (jobs, tps, sp, mean) ->
      Printf.printf "jobs=%d  %10.0f trials/sec  %5.2fx vs jobs=1  (mean EL %.6g)\n" jobs tps
        sp mean)
    speedup;
  Printf.printf "means bit-identical across job counts: yes (asserted)\n\n"

(* interceptor or profiler rows: per-op nanoseconds and minor words *)
let per_op_json op rows =
  let module J = Fortress_obs.Json in
  J.List
    (List.map
       (fun (name, ns, words) ->
         J.Obj
           [
             ("config", J.Str name);
             ("ns_per_" ^ op, J.Num ns);
             ("minor_words_per_" ^ op, J.Num words);
           ])
       rows)

(* a [paired_overhead] result under its section's base and variant keys,
   the ones bench_compare.py's ratio-gate table names *)
let paired_json base_key variant_key (base_s, variant_s, r) =
  let module J = Fortress_obs.Json in
  J.Obj [ (base_key, J.Num base_s); (variant_key, J.Num variant_s); ("ratio", J.Num r) ]

let write_bench_json ~path ~wall_seconds ~events ~event_seconds ~interceptor ~profiler
    ~speedup ~adaptive ~defender ~timeline ~causal ~workload =
  let module J = Fortress_obs.Json in
  let secs =
    List.rev_map
      (fun (name, dt) -> J.Obj [ ("name", J.Str name); ("seconds", J.Num dt) ])
      !sections
  in
  let json =
    J.Obj
      [
        ("benchmark", J.Str "fortress");
        ("wall_seconds", J.Num wall_seconds);
        ("domains_available", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("events_emitted", J.Num (float_of_int events));
        ("event_seconds", J.Num event_seconds);
        ("events_per_sec", J.Num (ratio (float_of_int events) event_seconds));
        ("interceptor_overhead", per_op_json "message" interceptor);
        ("profiler_overhead", per_op_json "call" profiler);
        ("parallel_speedup", speedup_rows_json speedup);
        ("adaptive_overhead", paired_json "fixed_seconds" "oblivious_seconds" adaptive);
        ("defender_overhead", paired_json "plain_seconds" "static_seconds" defender);
        ("timeline_overhead", paired_json "baseline_seconds" "subscriber_seconds" timeline);
        ( "causal_overhead",
          (let plain_s, traced_s, ratio, traced_ratio = causal in
           J.Obj
             [
               ("plain_seconds", J.Num plain_s);
               ("traced_seconds", J.Num traced_s);
               ("ratio", J.Num ratio);
               ("traced_ratio", J.Num traced_ratio);
             ]) );
        ( "workload_throughput",
          (let rps, issued, answered, p50, p99, avail = workload in
           J.Obj
             [
               ("requests_per_sec", J.Num rps);
               ("logical_requests", J.Num (float_of_int issued));
               ("answered", J.Num (float_of_int answered));
               ("p50_vt", J.Num p50);
               ("p99_vt", J.Num p99);
               ("availability", J.Num avail);
             ]) );
        ("sections", J.List secs);
      ]
  in
  write_json ~path json

(* --speedup-only: just the pooled-speedup section and its slice of the
   report — fast enough for every PR, where the full bench is push/nightly
   material. bench_compare.py consumes the same keys either way. *)
let speedup_only () =
  let t_start = Unix.gettimeofday () in
  let module J = Fortress_obs.Json in
  let speedup = measure_parallel_speedup () in
  print_speedup_rows speedup;
  let wall_seconds = Unix.gettimeofday () -. t_start in
  let path = "BENCH_fortress.json" in
  write_json ~path
    (J.Obj
       [
         ("benchmark", J.Str "fortress-speedup");
         ("wall_seconds", J.Num wall_seconds);
         ("domains_available", J.Num (float_of_int (Domain.recommended_domain_count ())));
         ("parallel_speedup", speedup_rows_json speedup);
       ]);
  Printf.printf "total wall time: %.2f s; speedup report written to %s\n" wall_seconds path

let full_bench () =
  let t_start = Unix.gettimeofday () in
  List.iter
    (fun (a : Artefact.t) ->
      section a.title (fun () ->
          let parts = a.render () in
          print_string (Artefact.text parts);
          (* the digest covers the entry's table, its first part *)
          match List.assoc_opt a.id pinned_digests with
          | Some expected -> assert_digest ~name:a.title ~expected (Artefact.text [ List.hd parts ])
          | None -> ()))
    Artefact.all;
  let events, event_seconds = measure_event_throughput () in
  Printf.printf "== observability throughput ==\n";
  Printf.printf "instrumented campaign emitted %d events in %.3f s cpu (%.0f events/sec)\n\n" events
    event_seconds (ratio (float_of_int events) event_seconds);
  let interceptor = measure_interceptor_overhead () in
  Printf.printf "== fault interceptor overhead (hot Network.send path) ==\n";
  List.iter
    (fun (name, ns, words) ->
      Printf.printf "%-18s %8.1f ns/message  %6.1f minor words/message\n" name ns words)
    interceptor;
  (match interceptor with
  | (_, _, base_words) :: rest ->
      let worst =
        List.fold_left (fun acc (_, _, w) -> Float.max acc (w -. base_words)) 0.0 rest
      in
      Printf.printf
        "no-plan path allocates nothing for the fault layer; worst configured delta %+.1f \
         words/message\n\n"
        worst
  | [] -> print_newline ());
  let profiler = measure_profiler_overhead () in
  Printf.printf "== phase profiler overhead (per instrumented call) ==\n";
  List.iter
    (fun (name, ns, words) ->
      Printf.printf "%-18s %8.1f ns/call  %6.1f minor words/call\n" name ns words)
    profiler;
  (match profiler with
  | ("disabled", _, words) :: _ ->
      Printf.printf "disabled path allocates %s per call\n\n"
        (if words < 0.5 then "nothing" else Printf.sprintf "%.1f words (REGRESSION)" words)
  | _ -> print_newline ());
  let speedup = measure_parallel_speedup () in
  print_speedup_rows speedup;
  let adaptive = measure_adaptive_overhead () in
  let fixed_s, obl_s, ratio = adaptive in
  Printf.printf "== adaptive campaign overhead (oblivious strategy vs fixed schedule) ==\n";
  Printf.printf
    "fixed schedule  %8.3f s cpu\noblivious loop  %8.3f s cpu  (%.2fx min of paired passes)\n"
    fixed_s obl_s ratio;
  Printf.printf "digests bit-identical across the two paths: yes (asserted)\n\n";
  let defender = measure_defender_overhead () in
  let plain_s, static_s, def_ratio = defender in
  Printf.printf "== defender controller overhead (static strategy vs no controller) ==\n";
  Printf.printf
    "no controller   %8.3f s cpu\nstatic defender %8.3f s cpu  (%.2fx min of paired passes)\n"
    plain_s static_s def_ratio;
  Printf.printf "digests bit-identical across the two paths: yes (asserted)\n\n";
  let timeline = measure_timeline_overhead () in
  let base_s, sub_s, tl_ratio = timeline in
  Printf.printf "== telemetry plane overhead (timeline + signal subscriber) ==\n";
  Printf.printf
    "digest only       %8.3f s cpu\ntimeline+signals  %8.3f s cpu  (%.2fx min of paired passes)\n"
    base_s sub_s tl_ratio;
  Printf.printf "trace digest bit-identical with the plane attached: yes (asserted)\n\n";
  let causal = measure_causal_overhead () in
  let plain_s, traced_s, causal_ratio, traced_ratio = causal in
  Printf.printf "== causal tracing overhead (chaos campaign, spans + latency extraction) ==\n";
  Printf.printf
    "tracing off     %8.3f s cpu\ntracing on      %8.3f s cpu  (%.2fx, informational)\noff again       \
     %.2fx of the first off pass (min of paired passes, gated)\n"
    plain_s traced_s traced_ratio causal_ratio;
  Printf.printf
    "off-pass digests bit-identical and EL unchanged by tracing: yes (asserted)\n\n";
  let workload = measure_workload_throughput () in
  let rps, issued, answered, p50, p99, avail = workload in
  Printf.printf "== workload plane: closed-loop throughput (32 clients, think 50, lossy) ==\n";
  Printf.printf
    "%8.0f logical requests/sec wall  (%d issued, %d answered, availability %.3f)\n" rps
    issued answered avail;
  Printf.printf "latency quantiles (virtual time): p50 %.2f  p99 %.2f\n" p50 p99;
  Printf.printf "pass digests bit-identical: yes (asserted)\n\n";
  let wall_seconds = Unix.gettimeofday () -. t_start in
  let path = "BENCH_fortress.json" in
  write_bench_json ~path ~wall_seconds ~events ~event_seconds ~interceptor ~profiler ~speedup
    ~adaptive ~defender ~timeline ~causal ~workload;
  Printf.printf "total wall time: %.2f s; per-section timings written to %s\n" wall_seconds path

let () =
  if Array.exists (String.equal "--speedup-only") Sys.argv then speedup_only ()
  else full_bench ()
