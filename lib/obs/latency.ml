module Table = Fortress_util.Table

type kind = Detection | Reaction | Stall_rekey

let kinds = [ Detection; Reaction; Stall_rekey ]

let kind_name = function
  | Detection -> "detection"
  | Reaction -> "reaction"
  | Stall_rekey -> "stall-rekey"

let kind_chain = function
  | Detection -> "fault onset -> first alarm"
  | Reaction -> "alarm -> defender directive"
  | Stall_rekey -> "stall -> forced rekey"

type t = {
  chains : (kind * (float * float) list) list;  (* (t_open, t_close), oldest first *)
  censored : (kind * int) list;
}

let empty = { chains = List.map (fun k -> (k, [])) kinds; censored = List.map (fun k -> (k, 0)) kinds }
let chains t k = try List.assoc k t.chains with Not_found -> []
let censored t k = try List.assoc k t.censored with Not_found -> 0
let durations t k = List.map (fun (a, b) -> b -. a) (chains t k)
let total t = List.fold_left (fun n (_, cs) -> n + List.length cs) 0 t.chains

let merge ts =
  {
    chains = List.map (fun k -> (k, List.concat_map (fun t -> chains t k) ts)) kinds;
    censored = List.map (fun k -> (k, List.fold_left (fun n t -> n + censored t k) 0 ts)) kinds;
  }

type summary = {
  s_count : int;
  s_censored : int;
  s_sum : float;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let summary t k =
  let ds = durations t k in
  let cens = censored t k in
  if ds = [] && cens = 0 then None
  else
    let a = Array.of_list ds in
    Array.sort compare a;
    let n = Array.length a in
    let sum = Array.fold_left ( +. ) 0.0 a in
    Some
      {
        s_count = n;
        s_censored = cens;
        s_sum = sum;
        s_mean = (if n = 0 then nan else sum /. float_of_int n);
        s_p50 = percentile a 0.5;
        s_p90 = percentile a 0.9;
        s_p99 = percentile a 0.99;
        s_max = (if n = 0 then nan else a.(n - 1));
      }

(* Chain extraction. Three independent state machines over a
   time-ordered event stream:
   - detection:   first real fault with no chain open -> next signal.alarm
   - reaction:    signal.alarm -> next defender directive
   - stall-rekey: obfuscation stall -> next rekey (or recovery) boundary
   An open chain at end of stream counts as censored, never as a zero. *)

(* bookkeeping Fault actions that do not constitute a fault onset *)
let onset_action = function
  | "plan_installed" | "plan_uninstalled" | "heal" | "resume" | "restart" | "stall_skip" -> false
  | _ -> true

let is_defender_directive strategy =
  String.length strategy >= 9 && String.sub strategy 0 9 = "defender:"

type cell = {
  mutable open_since : float option;
  mutable closed : (float * float) list;  (* newest first *)
  mutable cens : int;
}

type acc = { det : cell; rea : cell; stall : cell }

let cell () = { open_since = None; closed = []; cens = 0 }
let make_acc () = { det = cell (); rea = cell (); stall = cell () }

let open_at c time = if c.open_since = None then c.open_since <- Some time

let close_at c time =
  match c.open_since with
  | None -> ()
  | Some t0 ->
      c.open_since <- None;
      c.closed <- (t0, time) :: c.closed

let feed acc ~time ev =
  match ev with
  | Event.Fault { action; _ } when onset_action action ->
      open_at acc.det time;
      if action = "stall" then open_at acc.stall time
  | Event.Note { label = "signal.alarm"; _ } ->
      close_at acc.det time;
      open_at acc.rea time
  | Event.Directive { strategy; _ } when is_defender_directive strategy -> close_at acc.rea time
  | Event.Rekey _ | Event.Recover _ -> close_at acc.stall time
  | _ -> ()

let finalize acc =
  let fin c =
    (match c.open_since with None -> () | Some _ -> c.cens <- c.cens + 1);
    c.open_since <- None
  in
  fin acc.det;
  fin acc.rea;
  fin acc.stall;
  {
    chains =
      [
        (Detection, List.rev acc.det.closed);
        (Reaction, List.rev acc.rea.closed);
        (Stall_rekey, List.rev acc.stall.closed);
      ];
    censored = [ (Detection, acc.det.cens); (Reaction, acc.rea.cens); (Stall_rekey, acc.stall.cens) ];
  }

let collector () =
  let acc = make_acc () in
  let sub ~time ev = feed acc ~time ev in
  (sub, fun () -> finalize acc)

(* Offline extraction from an arbitrary (possibly reordered) event list.
   A pooled JSONL trace restarts virtual time at each trial boundary, so
   the stream is first split into per-trial segments on Trial events; each
   segment is then canonically ordered — by time, ties broken by the
   rendered JSONL line — making the result a pure function of the event
   multiset (invariant under reordering within a segment). *)

let canonical_sort seg =
  List.stable_sort
    (fun (t1, e1) (t2, e2) ->
      match compare (t1 : float) t2 with
      | 0 -> compare (Sink.line ~time:t1 e1) (Sink.line ~time:t2 e2)
      | c -> c)
    seg

let of_events events =
  let segments = ref [] and current = ref [] in
  List.iter
    (fun (time, ev) ->
      match ev with
      | Event.Trial _ ->
          segments := List.rev !current :: !segments;
          current := []
      | _ -> current := (time, ev) :: !current)
    events;
  segments := List.rev !current :: !segments;
  let extract seg =
    let acc = make_acc () in
    List.iter (fun (time, ev) -> feed acc ~time ev) (canonical_sort seg);
    finalize acc
  in
  merge (List.rev_map extract !segments |> List.rev)

let num = Printf.sprintf "%.6g"

let table t =
  let tbl =
    Table.create ~headers:[ "chain"; "n"; "censored"; "mean"; "p50"; "p90"; "p99"; "max" ]
  in
  Table.set_align tbl 0 Table.Left;
  List.iter
    (fun k ->
      match summary t k with
      | None -> Table.add_row tbl [ kind_name k; "0"; "0"; "-"; "-"; "-"; "-"; "-" ]
      | Some s ->
          let f x = if Float.is_nan x then "-" else num x in
          Table.add_row tbl
            [
              kind_name k;
              string_of_int s.s_count;
              string_of_int s.s_censored;
              f s.s_mean;
              f s.s_p50;
              f s.s_p90;
              f s.s_p99;
              f s.s_max;
            ])
    kinds;
  tbl

let chain_table t =
  let tbl = Table.create ~headers:[ "chain"; "t_open"; "t_close"; "latency" ] in
  Table.set_align tbl 0 Table.Left;
  List.iter
    (fun k ->
      List.iter
        (fun (a, b) -> Table.add_row tbl [ kind_name k; num a; num b; num (b -. a) ])
        (chains t k))
    kinds;
  tbl

(* Critical paths through the causal span tree: for each root span, the
   total elapsed virtual time to the deepest-ending descendant, with the
   chain of span names along the way. *)

let critical_path_table ?(limit = 20) events =
  let spans = Hashtbl.create 256 and children = Hashtbl.create 256 in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Event.Span_finished { id; parent; name; start_time; duration; _ } ->
          Hashtbl.replace spans id (name, parent, start_time, duration);
          (match parent with
          | Some p -> Hashtbl.replace children p (id :: (try Hashtbl.find children p with Not_found -> []))
          | None -> ())
      | _ -> ())
    events;
  let roots =
    Hashtbl.fold
      (fun id (_, parent, _, _) acc ->
        match parent with
        | None -> id :: acc
        | Some p -> if Hashtbl.mem spans p then acc else id :: acc)
      spans []
    |> List.sort compare
  in
  (* walk the subtree following, at each step, the child whose subtree ends
     latest — that chain is the span-tree critical path *)
  let rec walk id =
    let name, _, start, dur = Hashtbl.find spans id in
    let kids = List.sort compare (try Hashtbl.find children id with Not_found -> []) in
    let results = List.map walk kids in
    let count = 1 + List.fold_left (fun n (_, _, c) -> n + c) 0 results in
    match results with
    | [] -> (start +. dur, [ name ], count)
    | _ ->
        let best_end, best_chain =
          List.fold_left
            (fun (be, bc) (e, c, _) -> if e > be then (e, c) else (be, bc))
            (neg_infinity, []) results
        in
        (Float.max (start +. dur) best_end, name :: best_chain, count)
  in
  let rows =
    List.map
      (fun id ->
        let _, _, start, _ = Hashtbl.find spans id in
        let end_, chain, count = walk id in
        (end_ -. start, start, count, chain))
      roots
    |> List.sort (fun (a, sa, _, _) (b, sb, _, _) ->
           match compare (b : float) a with 0 -> compare (sa : float) sb | c -> c)
  in
  let tbl = Table.create ~headers:[ "elapsed"; "t_start"; "spans"; "critical path" ] in
  Table.set_align tbl 3 Table.Left;
  List.iteri
    (fun i (elapsed, start, count, chain) ->
      if i < limit then
        let path =
          let rec take n = function
            | [] -> []
            | _ when n = 0 -> [ "..." ]
            | x :: rest -> x :: take (n - 1) rest
          in
          String.concat " -> " (take 6 chain)
        in
        Table.add_row tbl [ num elapsed; num start; string_of_int count; path ])
    rows;
  tbl
