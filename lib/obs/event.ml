type tier = Proxy_tier | Server_tier
type probe_kind = Direct | Indirect | Launchpad
type probe_outcome = Crashed | Intruded | Blocked

type t =
  | Probe of { kind : probe_kind; tier : tier; target : int; outcome : probe_outcome }
  | Compromise of { tier : tier; index : int }
  | Rekey of { nodes : int }
  | Recover of { nodes : int }
  | Step of { n : int }
  | Invalid_observed of { proxy : int }
  | Source_blocked of { proxy : int; source : int }
  | Source_rotated of { burned : int }
  | Request_submitted of { id : string }
  | Request_completed of { id : string; accepted : bool }
  | Reply_rejected of { id : string }
  | Msg_delivered of { src : int; dst : int }
  | Msg_dropped of { src : int; dst : int; reason : string }
  | Failover of { proto : string; replica : int; view : int }
  | Repl of { proto : string; kind : string; detail : string }
  | Trial of { index : int; seed : int; lifetime : float option }
  | Span_finished of {
      id : int;
      parent : int option;
      name : string;
      start_time : float;
      duration : float;
      attrs : (string * string) list;
    }
  | Fault of { action : string; target : string; detail : string }
  | Directive of { step : int; strategy : string; detail : string }
  | Note of { label : string; detail : string }

let tier_to_string = function Proxy_tier -> "proxy" | Server_tier -> "server"

let tier_of_string = function
  | "proxy" -> Some Proxy_tier
  | "server" -> Some Server_tier
  | _ -> None

let kind_to_string = function Direct -> "direct" | Indirect -> "indirect" | Launchpad -> "launchpad"

let kind_of_string = function
  | "direct" -> Some Direct
  | "indirect" -> Some Indirect
  | "launchpad" -> Some Launchpad
  | _ -> None

let outcome_to_string = function Crashed -> "crash" | Intruded -> "intrusion" | Blocked -> "blocked"

let outcome_of_string = function
  | "crash" -> Some Crashed
  | "intrusion" -> Some Intruded
  | "blocked" -> Some Blocked
  | _ -> None

let label = function
  | Probe _ -> "probe"
  | Compromise _ -> "compromise"
  | Rekey _ -> "rekey"
  | Recover _ -> "recover"
  | Step _ -> "step"
  | Invalid_observed _ -> "invalid_observed"
  | Source_blocked _ -> "source_blocked"
  | Source_rotated _ -> "source_rotated"
  | Request_submitted _ -> "request_submitted"
  | Request_completed _ -> "request_completed"
  | Reply_rejected _ -> "reply_rejected"
  | Msg_delivered _ -> "msg_delivered"
  | Msg_dropped _ -> "msg_dropped"
  | Failover _ -> "failover"
  | Repl _ -> "repl"
  | Trial _ -> "trial"
  | Span_finished _ -> "span"
  | Fault _ -> "fault"
  | Directive _ -> "directive"
  | Note { label; _ } -> label

let detail = function
  | Probe { kind; tier; target; outcome } ->
      Printf.sprintf "%s probe at %s %d: %s" (kind_to_string kind) (tier_to_string tier) target
        (outcome_to_string outcome)
  | Compromise { tier; index } -> Printf.sprintf "%s %d compromised" (tier_to_string tier) index
  | Rekey { nodes } -> Printf.sprintf "rekeyed %d nodes (proactive obfuscation)" nodes
  | Recover { nodes } -> Printf.sprintf "recovered %d nodes (same keys)" nodes
  | Step { n } -> Printf.sprintf "attack step %d begins" n
  | Invalid_observed { proxy } -> Printf.sprintf "proxy %d logged an invalid request" proxy
  | Source_blocked { proxy; source } -> Printf.sprintf "proxy %d blocks source %d" proxy source
  | Source_rotated { burned } -> Printf.sprintf "attacker rotates source (%d burned)" burned
  | Request_submitted { id } -> Printf.sprintf "request %s submitted" id
  | Request_completed { id; accepted } ->
      Printf.sprintf "request %s %s" id (if accepted then "accepted" else "abandoned")
  | Reply_rejected { id } -> Printf.sprintf "reply for %s rejected (bad signature)" id
  | Msg_delivered { src; dst } -> Printf.sprintf "msg %d -> %d delivered" src dst
  | Msg_dropped { src; dst; reason } -> Printf.sprintf "msg %d -> %d dropped (%s)" src dst reason
  | Failover { proto; replica; view } ->
      Printf.sprintf "%s replica %d takes over (view %d)" proto replica view
  | Repl { proto; kind; detail } -> Printf.sprintf "%s %s: %s" proto kind detail
  | Trial { index; seed; lifetime } -> (
      match lifetime with
      | Some l -> Printf.sprintf "trial %d (seed %d): lifetime %g" index seed l
      | None -> Printf.sprintf "trial %d (seed %d): censored" index seed)
  | Span_finished { id; name; start_time; duration; _ } ->
      Printf.sprintf "span %s#%d [%g, %g]" name id start_time (start_time +. duration)
  | Fault { action; target; detail } ->
      if detail = "" then Printf.sprintf "fault %s on %s" action target
      else Printf.sprintf "fault %s on %s (%s)" action target detail
  | Directive { step; strategy; detail } ->
      Printf.sprintf "strategy %s adapts at step %d boundary: %s" strategy step detail
  | Note { detail; _ } -> detail

let verbosity = function
  | Probe _ | Invalid_observed _ | Request_submitted _ | Request_completed _ | Reply_rejected _
  | Msg_delivered _ | Msg_dropped _ | Span_finished _ ->
      `Debug
  (* per-message link faults fire at message rate; lifecycle faults
     (crash/restart/partition/heal/stall) are rare and belong in the tail *)
  | Fault { action = "drop" | "duplicate" | "reorder" | "corrupt" | "delay"; _ } -> `Debug
  | Fault _ -> `Info
  | Compromise _ | Rekey _ | Recover _ | Step _ | Source_blocked _ | Source_rotated _
  | Failover _ | Repl _ | Trial _ | Directive _ | Note _ ->
      `Info

(* ---- the trace line: write renders it, of_json reads it back ---- *)

(* Each constructor's constant text -- the label and the keys between its
   fields -- is one literal; only a Note's label is escaped *)
let lit = Buffer.add_string
let str = Json.add_string
let int = Json.add_int
let num = Json.add_num
let enum buf s = Buffer.add_char buf '"'; Buffer.add_string buf s; Buffer.add_char buf '"'

let rec attrs buf sep = function
  | [] -> ()
  | (k, v) :: rest ->
      if sep then Buffer.add_char buf ',';
      str buf k; Buffer.add_char buf ':'; str buf v;
      attrs buf true rest

(* the last non-integral time written, and its text: events often repeat
   it. The time sits in a one-cell float array and the text in reused
   bytes, so neither is boxed or copied into a fresh string. *)
type memo = { last : float array; text : Bytes.t; mutable len : int }

let memo () = { last = [| Float.nan |]; text = Bytes.create 32; len = 0 }

let add_time memo buf time =
  if Float.is_integer time then num buf time
  else if time = memo.last.(0) then Buffer.add_subbytes buf memo.text 0 memo.len
  else begin
    let start = Buffer.length buf in
    num buf time;
    memo.last.(0) <- time;
    memo.len <- Buffer.length buf - start;
    Buffer.blit buf start memo.text 0 memo.len
  end

let write_with memo buf ~time ev =
  lit buf "{\"t\":";
  add_time memo buf time;
  (match ev with
  | Probe { kind; tier; target; outcome } ->
      lit buf ",\"event\":\"probe\",\"kind\":"; enum buf (kind_to_string kind);
      lit buf ",\"tier\":"; enum buf (tier_to_string tier);
      lit buf ",\"target\":"; int buf target;
      lit buf ",\"outcome\":"; enum buf (outcome_to_string outcome)
  | Compromise { tier; index } ->
      lit buf ",\"event\":\"compromise\",\"tier\":"; enum buf (tier_to_string tier);
      lit buf ",\"index\":"; int buf index
  | Rekey { nodes } -> lit buf ",\"event\":\"rekey\",\"nodes\":"; int buf nodes
  | Recover { nodes } -> lit buf ",\"event\":\"recover\",\"nodes\":"; int buf nodes
  | Step { n } -> lit buf ",\"event\":\"step\",\"n\":"; int buf n
  | Invalid_observed { proxy } ->
      lit buf ",\"event\":\"invalid_observed\",\"proxy\":"; int buf proxy
  | Source_blocked { proxy; source } ->
      lit buf ",\"event\":\"source_blocked\",\"proxy\":"; int buf proxy;
      lit buf ",\"source\":"; int buf source
  | Source_rotated { burned } -> lit buf ",\"event\":\"source_rotated\",\"burned\":"; int buf burned
  | Request_submitted { id } -> lit buf ",\"event\":\"request_submitted\",\"id\":"; str buf id
  | Request_completed { id; accepted } ->
      lit buf ",\"event\":\"request_completed\",\"id\":"; str buf id;
      lit buf (if accepted then ",\"accepted\":true" else ",\"accepted\":false")
  | Reply_rejected { id } -> lit buf ",\"event\":\"reply_rejected\",\"id\":"; str buf id
  | Msg_delivered { src; dst } ->
      lit buf ",\"event\":\"msg_delivered\",\"src\":"; int buf src;
      lit buf ",\"dst\":"; int buf dst
  | Msg_dropped { src; dst; reason } ->
      lit buf ",\"event\":\"msg_dropped\",\"src\":"; int buf src;
      lit buf ",\"dst\":"; int buf dst;
      lit buf ",\"reason\":"; str buf reason
  | Failover { proto; replica; view } ->
      lit buf ",\"event\":\"failover\",\"proto\":"; str buf proto;
      lit buf ",\"replica\":"; int buf replica;
      lit buf ",\"view\":"; int buf view
  | Repl { proto; kind; detail } ->
      lit buf ",\"event\":\"repl\",\"proto\":"; str buf proto;
      lit buf ",\"kind\":"; str buf kind;
      lit buf ",\"detail\":"; str buf detail
  | Trial { index; seed; lifetime } -> (
      lit buf ",\"event\":\"trial\",\"index\":"; int buf index;
      lit buf ",\"seed\":"; int buf seed;
      lit buf ",\"lifetime\":";
      match lifetime with Some l -> num buf l | None -> lit buf "null")
  | Span_finished { id; parent; name; start_time; duration; attrs = a } ->
      lit buf ",\"event\":\"span\",\"id\":"; int buf id;
      lit buf ",\"parent\":";
      (match parent with Some p -> int buf p | None -> lit buf "null");
      lit buf ",\"name\":"; str buf name;
      lit buf ",\"start\":"; num buf start_time;
      lit buf ",\"duration\":"; num buf duration;
      lit buf ",\"attrs\":{"; attrs buf false a; Buffer.add_char buf '}'
  | Fault { action; target; detail } ->
      lit buf ",\"event\":\"fault\",\"action\":"; str buf action;
      lit buf ",\"target\":"; str buf target;
      lit buf ",\"detail\":"; str buf detail
  | Directive { step; strategy; detail } ->
      lit buf ",\"event\":\"directive\",\"step\":"; int buf step;
      lit buf ",\"strategy\":"; str buf strategy;
      lit buf ",\"detail\":"; str buf detail
  | Note { label; detail } ->
      lit buf ",\"event\":"; str buf label;
      lit buf ",\"detail\":"; str buf detail);
  Buffer.add_char buf '}'

let write buf ~time ev = write_with (memo ()) buf ~time ev

let writer () =
  let memo = memo () in
  fun buf ~time ev -> write_with memo buf ~time ev

let of_json json =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or malformed field %S" name)
  in
  let str_field name = field name Json.str in
  let int_field name = field name Json.int in
  match Json.member "event" json with
  | None -> Error "missing \"event\" field"
  | Some (Json.Str tag) -> (
      let enum name of_string =
        let* s = str_field name in
        match of_string s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "bad %s: %S" name s)
      in
      match tag with
      | "probe" ->
          let* kind = enum "kind" kind_of_string in
          let* tier = enum "tier" tier_of_string in
          let* target = int_field "target" in
          let* outcome = enum "outcome" outcome_of_string in
          Ok (Probe { kind; tier; target; outcome })
      | "compromise" ->
          let* tier = enum "tier" tier_of_string in
          let* index = int_field "index" in
          Ok (Compromise { tier; index })
      | "rekey" ->
          let* nodes = int_field "nodes" in
          Ok (Rekey { nodes })
      | "recover" ->
          let* nodes = int_field "nodes" in
          Ok (Recover { nodes })
      | "step" ->
          let* n = int_field "n" in
          Ok (Step { n })
      | "invalid_observed" ->
          let* proxy = int_field "proxy" in
          Ok (Invalid_observed { proxy })
      | "source_blocked" ->
          let* proxy = int_field "proxy" in
          let* source = int_field "source" in
          Ok (Source_blocked { proxy; source })
      | "source_rotated" ->
          let* burned = int_field "burned" in
          Ok (Source_rotated { burned })
      | "request_submitted" ->
          let* id = str_field "id" in
          Ok (Request_submitted { id })
      | "request_completed" ->
          let* id = str_field "id" in
          let* accepted = field "accepted" Json.bool in
          Ok (Request_completed { id; accepted })
      | "reply_rejected" ->
          let* id = str_field "id" in
          Ok (Reply_rejected { id })
      | "msg_delivered" ->
          let* src = int_field "src" in
          let* dst = int_field "dst" in
          Ok (Msg_delivered { src; dst })
      | "msg_dropped" ->
          let* src = int_field "src" in
          let* dst = int_field "dst" in
          let* reason = str_field "reason" in
          Ok (Msg_dropped { src; dst; reason })
      | "failover" ->
          let* proto = str_field "proto" in
          let* replica = int_field "replica" in
          let* view = int_field "view" in
          Ok (Failover { proto; replica; view })
      | "repl" ->
          let* proto = str_field "proto" in
          let* kind = str_field "kind" in
          let* detail = str_field "detail" in
          Ok (Repl { proto; kind; detail })
      | "trial" ->
          let* index = int_field "index" in
          let* seed = int_field "seed" in
          let lifetime =
            match Json.member "lifetime" json with
            | Some (Json.Num l) -> Some l
            | Some Json.Null | None | Some _ -> None
          in
          Ok (Trial { index; seed; lifetime })
      | "span" ->
          let* id = int_field "id" in
          let parent =
            match Json.member "parent" json with
            | Some (Json.Num p) when Float.is_integer p -> Some (int_of_float p)
            | _ -> None
          in
          let* name = str_field "name" in
          let* start_time = field "start" Json.num in
          let* duration = field "duration" Json.num in
          let attrs =
            match Json.member "attrs" json with
            | Some (Json.Obj fields) ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.str v))
                  fields
            | _ -> []
          in
          Ok (Span_finished { id; parent; name; start_time; duration; attrs })
      | "fault" ->
          let* action = str_field "action" in
          let* target = str_field "target" in
          let* detail = str_field "detail" in
          Ok (Fault { action; target; detail })
      | "directive" ->
          let* step = int_field "step" in
          let* strategy = str_field "strategy" in
          let* detail = str_field "detail" in
          Ok (Directive { step; strategy; detail })
      | label ->
          (* any unrecognized tag round-trips as a note *)
          let detail =
            Option.value ~default:"" (Option.bind (Json.member "detail" json) Json.str)
          in
          Ok (Note { label; detail }))
  | Some _ -> Error "\"event\" field is not a string"

let pp ppf ev = Format.fprintf ppf "%-18s %s" (label ev) (detail ev)
