module Table = Fortress_util.Table

type t = {
  total : int;
  malformed : int;
  t_min : float;
  t_max : float;
  by_label : (string * int) list;
  steps : int;
  rekeys : int;
  recovers : int;
  probes_direct : int;
  probes_indirect : int;
  probes_launchpad : int;
  probes_crashed : int;
  probes_intruded : int;
  probes_blocked : int;
  proxy_probes : int;
  server_probes : int;
  proxies_seen : int;
  compromises_proxy : int;
  compromises_server : int;
  trials : int;
  trials_censored : int;
  trial_lifetime_sum : float;
  spans : (string * int * float) list;
  faults : (string * int) list;
  alarms : (string * int * float) list;  (* detector, count, first alarm vt *)
}

type acc = {
  mutable a_total : int;
  mutable a_malformed : int;
  mutable a_tmin : float;
  mutable a_tmax : float;
  counts : Counts.t;  (* per-label, probe kind/outcome and fault-action counts *)
  mutable a_proxy_probes : int;
  mutable a_server_probes : int;
  proxy_targets : (int, unit) Hashtbl.t;
  mutable a_comp_proxy : int;
  mutable a_comp_server : int;
  mutable a_trials : int;
  mutable a_censored : int;
  mutable a_lifetime_sum : float;
  span_stats : (string, (int * float) ref) Hashtbl.t;
  alarm_stats : (string, (int * float) ref) Hashtbl.t;  (* count, first time *)
}

let fresh () =
  {
    a_total = 0;
    a_malformed = 0;
    a_tmin = infinity;
    a_tmax = neg_infinity;
    counts = Counts.create ();
    a_proxy_probes = 0;
    a_server_probes = 0;
    proxy_targets = Hashtbl.create 8;
    a_comp_proxy = 0;
    a_comp_server = 0;
    a_trials = 0;
    a_censored = 0;
    a_lifetime_sum = 0.0;
    span_stats = Hashtbl.create 8;
    alarm_stats = Hashtbl.create 8;
  }

let add acc time (ev : Event.t) =
  acc.a_total <- acc.a_total + 1;
  if time < acc.a_tmin then acc.a_tmin <- time;
  if time > acc.a_tmax then acc.a_tmax <- time;
  Counts.add acc.counts ev;
  match ev with
  | Event.Probe { tier = Event.Proxy_tier; target; _ } ->
      acc.a_proxy_probes <- acc.a_proxy_probes + 1;
      Hashtbl.replace acc.proxy_targets target ()
  | Event.Probe { tier = Event.Server_tier; _ } ->
      acc.a_server_probes <- acc.a_server_probes + 1
  | Event.Compromise { tier = Event.Proxy_tier; _ } -> acc.a_comp_proxy <- acc.a_comp_proxy + 1
  | Event.Compromise { tier = Event.Server_tier; _ } -> acc.a_comp_server <- acc.a_comp_server + 1
  | Event.Trial { lifetime; _ } ->
      acc.a_trials <- acc.a_trials + 1;
      (match lifetime with
      | Some l -> acc.a_lifetime_sum <- acc.a_lifetime_sum +. l
      | None -> acc.a_censored <- acc.a_censored + 1)
  | Event.Span_finished { name; duration; _ } -> (
      match Hashtbl.find_opt acc.span_stats name with
      | Some r ->
          let n, d = !r in
          r := (n + 1, d +. duration)
      | None -> Hashtbl.replace acc.span_stats name (ref (1, duration)))
  | Event.Note { label = "signal.alarm"; detail } ->
      (* alarm detail leads with the detector kind: "<detector>: raw=..." *)
      let detector =
        match String.index_opt detail ':' with
        | Some i -> String.sub detail 0 i
        | None -> "unknown"
      in
      (match Hashtbl.find_opt acc.alarm_stats detector with
      | Some r ->
          let n, first = !r in
          r := (n + 1, Float.min first time)
      | None -> Hashtbl.replace acc.alarm_stats detector (ref (1, time)))
  | _ -> ()

let finalize acc =
  let fixed = Counts.fixed acc.counts in
  {
    total = acc.a_total;
    malformed = acc.a_malformed;
    t_min = (if acc.a_total = 0 then 0.0 else acc.a_tmin);
    t_max = (if acc.a_total = 0 then 0.0 else acc.a_tmax);
    by_label = Counts.with_prefix "events." acc.counts;
    steps = fixed "events.step";
    rekeys = fixed "events.rekey";
    recovers = fixed "events.recover";
    probes_direct = fixed "probe.direct";
    probes_indirect = fixed "probe.indirect";
    probes_launchpad = fixed "probe.launchpad";
    probes_crashed = fixed "probe.crash";
    probes_intruded = fixed "probe.intrusion";
    probes_blocked = fixed "probe.blocked";
    proxy_probes = acc.a_proxy_probes;
    server_probes = acc.a_server_probes;
    proxies_seen = Hashtbl.length acc.proxy_targets;
    compromises_proxy = acc.a_comp_proxy;
    compromises_server = acc.a_comp_server;
    trials = acc.a_trials;
    trials_censored = acc.a_censored;
    trial_lifetime_sum = acc.a_lifetime_sum;
    spans =
      Hashtbl.fold (fun name r l -> (name, fst !r, snd !r) :: l) acc.span_stats []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b);
    faults = Counts.with_prefix "fault." acc.counts;
    alarms =
      Hashtbl.fold (fun k r l -> (k, fst !r, snd !r) :: l) acc.alarm_stats []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b);
  }

let of_events events =
  let acc = fresh () in
  List.iter (fun (time, ev) -> add acc time ev) events;
  finalize acc

let of_file path =
  let acc = fresh () in
  acc.a_malformed <- Sink.read_file path (fun ~time ev -> add acc time ev);
  finalize acc

let steps_observed s = max s.steps (max s.rekeys s.recovers)

let table s =
  let t = Table.create ~headers:[ "quantity"; "value" ] in
  Table.set_align t 0 Table.Left;
  let steps = steps_observed s in
  let row name v = Table.add_row t [ name; v ] in
  let rowi name v = row name (string_of_int v) in
  rowi "events" s.total;
  if s.malformed > 0 then rowi "malformed lines" s.malformed;
  row "virtual time range" (Printf.sprintf "[%.4g, %.4g]" s.t_min s.t_max);
  rowi "steps observed" steps;
  rowi "rekeys (PO boundaries)" s.rekeys;
  rowi "recoveries (SO boundaries)" s.recovers;
  rowi "probes: direct" s.probes_direct;
  rowi "probes: indirect" s.probes_indirect;
  rowi "probes: launch-pad" s.probes_launchpad;
  rowi "probe outcomes: crash" s.probes_crashed;
  rowi "probe outcomes: intrusion" s.probes_intruded;
  rowi "probe outcomes: blocked" s.probes_blocked;
  rowi "proxy-tier probes" s.proxy_probes;
  rowi "server-tier probes" s.server_probes;
  rowi "distinct proxies probed" s.proxies_seen;
  rowi "compromises: proxy" s.compromises_proxy;
  rowi "compromises: server" s.compromises_server;
  if steps > 0 then begin
    let per_step n = Printf.sprintf "%.3f" (float_of_int n /. float_of_int steps) in
    row "probes/step" (per_step (s.probes_direct + s.probes_indirect + s.probes_launchpad));
    row "rekeys/step" (per_step s.rekeys)
  end;
  if s.trials > 0 then begin
    rowi "mc trials" s.trials;
    rowi "mc trials censored" s.trials_censored;
    let observed = s.trials - s.trials_censored in
    if observed > 0 then
      row "mc mean lifetime" (Printf.sprintf "%.4g" (s.trial_lifetime_sum /. float_of_int observed))
  end;
  t

let span_table s =
  let t = Table.create ~headers:[ "span"; "count"; "total vt"; "mean vt" ] in
  Table.set_align t 0 Table.Left;
  List.iter
    (fun (name, count, dur) ->
      Table.add_row t
        [
          name;
          string_of_int count;
          Printf.sprintf "%.4g" dur;
          Printf.sprintf "%.4g" (dur /. float_of_int count);
        ])
    s.spans;
  t

let fault_table s =
  let t = Table.create ~headers:[ "fault action"; "count" ] in
  Table.set_align t 0 Table.Left;
  List.iter (fun (action, n) -> Table.add_row t [ action; string_of_int n ]) s.faults;
  t

let alarm_table s =
  let t = Table.create ~headers:[ "detector"; "alarms"; "first alarm vt" ] in
  Table.set_align t 0 Table.Left;
  List.iter
    (fun (detector, n, first) ->
      Table.add_row t [ detector; string_of_int n; Printf.sprintf "%.4g" first ])
    s.alarms;
  t

let by_label_table s =
  let t = Table.create ~headers:[ "event"; "count"; "per vt" ] in
  Table.set_align t 0 Table.Left;
  let span = s.t_max -. s.t_min in
  let rate n =
    if span > 0.0 then Printf.sprintf "%.4g" (float_of_int n /. span) else "-"
  in
  List.iter
    (fun (label, n) -> Table.add_row t [ label; string_of_int n; rate n ])
    s.by_label;
  t

let render s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render (table s));
  Buffer.add_string buf "\nevents by label:\n";
  Buffer.add_string buf (Table.render (by_label_table s));
  if s.faults <> [] then begin
    Buffer.add_string buf "\ninjected faults by action:\n";
    Buffer.add_string buf (Table.render (fault_table s))
  end;
  if s.alarms <> [] then begin
    Buffer.add_string buf "\ndefender signal alarms:\n";
    Buffer.add_string buf (Table.render (alarm_table s))
  end;
  if s.spans <> [] then begin
    Buffer.add_string buf "\nspans (virtual-time durations):\n";
    Buffer.add_string buf (Table.render (span_table s))
  end;
  Buffer.contents buf

type check = { metric : string; measured : float; expected : float; ok : bool }

let consistency ~omega ~chi ~kappa s =
  let steps = float_of_int (steps_observed s) in
  let checks = ref [] in
  let push metric measured expected ok = checks := { metric; measured; expected; ok } :: !checks in
  if steps > 0.0 then begin
    (* Direct probes: omega per live proxy channel per step. Captured or
       late-step proxies receive fewer, so accept a wide band below and a
       small overshoot above. *)
    let np = float_of_int (max s.proxies_seen 1) in
    let direct_rate = float_of_int s.probes_direct /. steps in
    let direct_expected = np *. float_of_int omega in
    push "direct probes/step" direct_rate direct_expected
      (direct_rate <= 1.10 *. direct_expected && direct_rate >= 0.50 *. direct_expected);
    (* Indirect stream paced at kappa * omega. *)
    let indirect_rate = float_of_int s.probes_indirect /. steps in
    let indirect_expected = Float.round (kappa *. float_of_int omega) in
    let slack = Float.max 1.0 (0.5 *. indirect_expected) in
    push "indirect probes/step" indirect_rate indirect_expected
      (Float.abs (indirect_rate -. indirect_expected) <= slack);
    (* Exactly one obfuscation boundary per step. *)
    let boundary_rate = float_of_int (s.rekeys + s.recovers) /. steps in
    push "obfuscation boundaries/step" boundary_rate 1.0
      (Float.abs (boundary_rate -. 1.0) <= 0.25)
  end;
  (* Per-probe intrusion fraction: each tested probe hits with probability
     about 1/chi (elimination within a step is negligible for omega << chi).
     Use a 3-sigma binomial band plus slack for tiny expectations. *)
  let tested = s.probes_crashed + s.probes_intruded in
  if tested > 0 then begin
    let expected_hits = float_of_int tested /. float_of_int chi in
    let sigma = Float.sqrt expected_hits in
    let measured = float_of_int s.probes_intruded in
    push "intrusions (count)" measured expected_hits
      (Float.abs (measured -. expected_hits) <= (3.0 *. sigma) +. 3.0)
  end;
  List.rev !checks

let check_table checks =
  let t = Table.create ~headers:[ "check"; "measured"; "expected"; "verdict" ] in
  Table.set_align t 0 Table.Left;
  List.iter
    (fun c ->
      Table.add_row t
        [
          c.metric;
          Printf.sprintf "%.4g" c.measured;
          Printf.sprintf "%.4g" c.expected;
          (if c.ok then "consistent" else "INCONSISTENT");
        ])
    checks;
  t
