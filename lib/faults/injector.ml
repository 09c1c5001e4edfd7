module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Address = Fortress_net.Address
module Prng = Fortress_util.Prng
module Event = Fortress_obs.Event

type stats = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable delayed : int;
  mutable timeline_fired : int;
}

let fresh_stats () =
  { dropped = 0; duplicated = 0; reordered = 0; corrupted = 0; delayed = 0; timeline_fired = 0 }

let stats_total s = s.dropped + s.duplicated + s.reordered + s.corrupted + s.delayed

(* The injector draws from its own PRNG, salted away from the engine's, so
   installing a plan never perturbs the simulation's organic randomness:
   the baseline run and the faulted run sample identical latencies and
   keys, and two faulted runs with equal (plan, seed) are bit-identical. *)
let derive_prng ~seed = Prng.create ~seed:(seed lxor 0x6661756c74)

(* Each faulted link's "link S->D" label, formatted at the link's first
   fault and shared by every later one. Rows are indexed by source id and
   each row by destination id, both grown to the largest id seen, so the
   table holds only links that faulted and belongs to one interceptor. *)
let link_labels () =
  let rows = ref [||] in
  fun ~src ~dst ->
    let s = Address.id src and d = Address.id dst in
    if s >= Array.length !rows then begin
      let grown = Array.make (s + 1) [||] in
      Array.blit !rows 0 grown 0 (Array.length !rows);
      rows := grown
    end;
    if d >= Array.length !rows.(s) then begin
      let grown = Array.make (d + 1) "" in
      Array.blit !rows.(s) 0 grown 0 (Array.length !rows.(s));
      !rows.(s) <- grown
    end;
    match !rows.(s).(d) with
    | "" ->
        let label = Printf.sprintf "link %d->%d" s d in
        !rows.(s).(d) <- label;
        label
    | label -> label

(* Compile the per-message fault rates into a network interceptor. Draw
   order is fixed (drop, corrupt, duplicate, reorder, jitter) so the PRNG
   stream — and hence the trace — is a pure function of the message
   sequence. *)
let link_interceptor ~engine ~prng ~stats (lf : Plan.link) =
  let label = link_labels () in
  let emit ~src ~dst action =
    Engine.emit engine (Event.Fault { action; target = label ~src ~dst; detail = "" })
  in
  fun ~src ~dst _msg ->
    if lf.Plan.drop > 0.0 && Prng.bernoulli prng ~p:lf.Plan.drop then begin
      stats.dropped <- stats.dropped + 1;
      emit ~src ~dst "drop";
      Network.Drop "fault:drop"
    end
    else begin
      let corrupt = lf.Plan.corrupt > 0.0 && Prng.bernoulli prng ~p:lf.Plan.corrupt in
      let duplicate = lf.Plan.duplicate > 0.0 && Prng.bernoulli prng ~p:lf.Plan.duplicate in
      let reorder = lf.Plan.reorder > 0.0 && Prng.bernoulli prng ~p:lf.Plan.reorder in
      let jitter = if lf.Plan.jitter > 0.0 then Prng.float prng *. lf.Plan.jitter else 0.0 in
      let extra = lf.Plan.extra_latency +. jitter in
      if (not corrupt) && (not duplicate) && (not reorder) && extra = 0.0 then Network.Pass
      else begin
        if corrupt then begin
          stats.corrupted <- stats.corrupted + 1;
          emit ~src ~dst "corrupt"
        end;
        if duplicate then begin
          stats.duplicated <- stats.duplicated + 1;
          emit ~src ~dst "duplicate"
        end;
        if reorder then begin
          stats.reordered <- stats.reordered + 1;
          emit ~src ~dst "reorder"
        end;
        if (not corrupt) && (not duplicate) && not reorder then begin
          stats.delayed <- stats.delayed + 1;
          emit ~src ~dst "delay"
        end;
        let held = extra +. if reorder then lf.Plan.reorder_delay else 0.0 in
        let first = { Network.extra_delay = held; corrupt } in
        let deliveries =
          (* the duplicate travels clean and un-reordered: two distinct
             copies arriving at different times *)
          if duplicate then [ first; { Network.extra_delay = extra; corrupt = false } ]
          else [ first ]
        in
        Network.Deliver deliveries
      end
    end

let install_link ~engine ~net ~prng ~stats (lf : Plan.link) =
  if not (Plan.link_is_calm lf) then
    Network.set_interceptor net (Some (link_interceptor ~engine ~prng ~stats lf))
