module Engine = Fortress_sim.Engine
module Prng = Fortress_util.Prng
module Histogram = Fortress_util.Histogram

type loop = Open of Arrival.t | Closed of { clients : int; think : float }
type spec = { loop : loop; batch : int; timeout : float }

let default_timeout = 200.0

let make ?(batch = 1) ?(timeout = default_timeout) loop = { loop; batch; timeout }

let validate spec =
  if spec.batch < 1 then Error "batch must be >= 1"
  else if not (Float.is_finite spec.timeout) then Error "timeout must be finite"
  else if spec.timeout <= 0.0 then Error "timeout must be positive"
  else
    match spec.loop with
    | Open arrival -> Arrival.validate arrival
    | Closed { clients; think } ->
        if clients < 1 then Error "closed: clients must be >= 1"
        else if not (Float.is_finite think) then Error "closed: think must be finite"
        else if think < 0.0 then Error "closed: think must be >= 0"
        else Ok ()

let spec_to_string spec =
  let base =
    match spec.loop with
    | Open arrival -> Arrival.to_string arrival
    | Closed { clients; think } ->
        Printf.sprintf "closed:clients=%d,think=%g,timeout=%g" clients think spec.timeout
  in
  if spec.batch = 1 then base else Printf.sprintf "%s,batch=%d" base spec.batch

(* Grammar: KIND:k=v,k=v,... — e.g. "poisson:rate=0.5,batch=8",
   "bursty:rate=0.2,burst=2,on=25,off=100", "closed:clients=64,think=50". *)
let spec_of_string s =
  let ( let* ) = Result.bind in
  let kind, rest =
    match String.index_opt s ':' with
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, "")
  in
  let* kvs =
    if rest = "" then Ok []
    else
      List.fold_left
        (fun acc part ->
          let* acc = acc in
          match String.index_opt part '=' with
          | Some i ->
              Ok
                ((String.sub part 0 i, String.sub part (i + 1) (String.length part - i - 1))
                :: acc)
          | None -> Error (Printf.sprintf "expected key=value, got %S" part))
        (Ok [])
        (String.split_on_char ',' rest)
  in
  let lookup k = List.assoc_opt k kvs in
  let known keys =
    match List.find_opt (fun (k, _) -> not (List.mem k keys)) kvs with
    | Some (k, _) -> Error (Printf.sprintf "unknown key %S for %s spec" k kind)
    | None -> Ok ()
  in
  let floatv k default =
    match lookup k with
    | None -> (
        match default with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "%s spec needs %s=" kind k))
    | Some v -> (
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "%s: not a number, %S" k v))
  in
  let intv k default =
    match lookup k with
    | None -> (
        match default with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "%s spec needs %s=" kind k))
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "%s: not an integer, %S" k v))
  in
  let* spec =
    match kind with
    | "uniform" ->
        let* () = known [ "period"; "batch"; "timeout" ] in
        let* period = floatv "period" None in
        Ok (Open (Arrival.Uniform { period }))
    | "poisson" ->
        let* () = known [ "rate"; "batch"; "timeout" ] in
        let* rate = floatv "rate" None in
        Ok (Open (Arrival.Poisson { rate }))
    | "bursty" ->
        let* () = known [ "rate"; "burst"; "on"; "off"; "batch"; "timeout" ] in
        let* rate = floatv "rate" None in
        let* burst = floatv "burst" None in
        let* mean_on = floatv "on" (Some 25.0) in
        let* mean_off = floatv "off" (Some 100.0) in
        Ok (Open (Arrival.Bursty { rate; burst; mean_on; mean_off }))
    | "closed" ->
        let* () = known [ "clients"; "think"; "batch"; "timeout" ] in
        let* clients = intv "clients" None in
        let* think = floatv "think" (Some 50.0) in
        Ok (Closed { clients; think })
    | other -> Error (Printf.sprintf "unknown workload kind %S" other)
  in
  let* batch = intv "batch" (Some 1) in
  let* timeout = floatv "timeout" (Some default_timeout) in
  let spec = { loop = spec; batch; timeout } in
  let* () = validate spec in
  Ok spec

(* One latency-histogram shape for every workload, so per-trial histograms
   always merge at the join: log bins from sub-hop latency to well past the
   client's full retry budget (10 retries x 25.0). *)
let latency_histogram () = Histogram.create_log ~lo:0.1 ~hi:10_000.0 ~bins:64

type stats = {
  mutable issued : int;
  mutable answered : int;
  mutable timed_out : int;
  mutable submitted : int;
  latency : Histogram.t;
}

let fresh_stats () =
  { issued = 0; answered = 0; timed_out = 0; submitted = 0; latency = latency_histogram () }

let accumulate acc s =
  acc.issued <- acc.issued + s.issued;
  acc.answered <- acc.answered + s.answered;
  acc.timed_out <- acc.timed_out + s.timed_out;
  acc.submitted <- acc.submitted + s.submitted;
  Histogram.merge acc.latency s.latency

let availability s =
  if s.issued = 0 then None
  else Some (float_of_int s.answered /. float_of_int s.issued)

let quantile s q = Histogram.quantile s.latency q

type handle = { h_spec : spec; h_stats : stats }

let stats h = h.h_stats
let spec h = h.h_spec

(* The generator's PRNG is its own stream, decoupled from the engine's:
   arrival jitter must not change which keys the defense rotates through
   or what the attacker draws, so runs with and without load stay
   pairwise comparable on everything the load does not itself touch. *)
let attach (type s c)
    (module St : Fortress_core.Stack_intf.S with type t = s and type client = c)
    (stack : s) ~seed spec =
  (match validate spec with Ok () -> () | Error e -> invalid_arg ("Workload.attach: " ^ e));
  let engine = St.engine stack in
  let prng = Prng.create ~seed:(seed lxor 0x6c6f6164) (* "load" *) in
  let st = fresh_stats () in
  let h = { h_spec = spec; h_stats = st } in
  let b = spec.batch in
  (* one physical submission carries [b] logical requests; accounting is
     O(1) per batch via weighted histogram adds *)
  let submit_batch client ~cmd ~on_settled =
    let t0 = Engine.now engine in
    st.issued <- st.issued + b;
    st.submitted <- st.submitted + 1;
    let settled = ref false in
    ignore
      (St.submit client ~cmd ~on_response:(fun _ ->
           if not !settled then begin
             settled := true;
             st.answered <- st.answered + b;
             Histogram.add_n st.latency (Engine.now engine -. t0) b;
             on_settled ()
           end));
    settled
  in
  (match spec.loop with
  | Open arrival ->
      let client = St.new_client stack ~name:"load" in
      let arrival_state = Arrival.init arrival prng in
      let n = ref 0 in
      (* open loop: arrivals are independent of responses — a slow system
         does not slow the offered load, it just grows the in-flight set *)
      let rec arm () =
        ignore
          (Engine.schedule engine ~delay:(Arrival.next_gap arrival arrival_state prng)
             (fun () ->
               incr n;
               ignore
                 (submit_batch client
                    ~cmd:(Printf.sprintf "get load%d" !n)
                    ~on_settled:ignore);
               arm ()))
      in
      arm ()
  | Closed { clients; think } ->
      (* N virtual sessions multiplexed over one protocol client: each
         session waits for its answer (or the timeout), thinks, and
         submits again — response time feeds back into offered load *)
      let client = St.new_client stack ~name:"load" in
      for session = 0 to clients - 1 do
        let n = ref 0 in
        let rec next_request () =
          incr n;
          let advanced = ref false in
          let advance () =
            if not !advanced then begin
              advanced := true;
              ignore (Engine.schedule engine ~delay:think next_request)
            end
          in
          let settled =
            submit_batch client
              ~cmd:(Printf.sprintf "get s%dr%d" session !n)
              ~on_settled:advance
          in
          ignore
            (Engine.schedule engine ~delay:spec.timeout (fun () ->
                 if not !settled then begin
                   (* give up on this request: late replies are ignored *)
                   settled := true;
                   st.timed_out <- st.timed_out + b;
                   advance ()
                 end))
        in
        (* stagger session starts uniformly over one think time so a
           thousand sessions do not fire a synchronized first volley *)
        let start = Prng.float prng *. Float.max think 1.0 in
        ignore (Engine.schedule engine ~delay:start next_request)
      done);
  h
