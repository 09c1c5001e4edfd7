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

let key buf k = Buffer.add_string buf ",\""; Buffer.add_string buf k; Buffer.add_string buf "\":"
let str buf k v = key buf k; Json.add_string buf v
let int buf k n = key buf k; Json.add_int buf n
let num buf k x = key buf k; Json.add_num buf x
let null buf k = key buf k; Buffer.add_string buf "null"

let rec attrs buf sep = function
  | [] -> ()
  | (k, v) :: rest ->
      if sep then Buffer.add_char buf ',';
      Json.add_string buf k; Buffer.add_char buf ':'; Json.add_string buf v;
      attrs buf true rest

(* the last non-integral time written, and its text: events often repeat it *)
type memo = { mutable last : float; mutable text : string }

let write_with memo buf ~time ev =
  Buffer.add_string buf "{\"t\":";
  if Float.is_integer time then Json.add_num buf time
  else if time = memo.last then Buffer.add_string buf memo.text
  else begin
    let start = Buffer.length buf in
    Json.add_num buf time;
    memo.last <- time;
    memo.text <- Buffer.sub buf start (Buffer.length buf - start)
  end;
  Buffer.add_string buf ",\"event\":";
  Json.add_string buf (label ev);
  (match ev with
  | Probe { kind; tier; target; outcome } ->
      str buf "kind" (kind_to_string kind); str buf "tier" (tier_to_string tier);
      int buf "target" target; str buf "outcome" (outcome_to_string outcome)
  | Compromise { tier; index } -> str buf "tier" (tier_to_string tier); int buf "index" index
  | Rekey { nodes } | Recover { nodes } -> int buf "nodes" nodes
  | Step { n } -> int buf "n" n
  | Invalid_observed { proxy } -> int buf "proxy" proxy
  | Source_blocked { proxy; source } -> int buf "proxy" proxy; int buf "source" source
  | Source_rotated { burned } -> int buf "burned" burned
  | Request_submitted { id } | Reply_rejected { id } -> str buf "id" id
  | Request_completed { id; accepted } ->
      str buf "id" id; key buf "accepted"; Buffer.add_string buf (string_of_bool accepted)
  | Msg_delivered { src; dst } -> int buf "src" src; int buf "dst" dst
  | Msg_dropped { src; dst; reason } ->
      int buf "src" src; int buf "dst" dst; str buf "reason" reason
  | Failover { proto; replica; view } ->
      str buf "proto" proto; int buf "replica" replica; int buf "view" view
  | Repl { proto; kind; detail } ->
      str buf "proto" proto; str buf "kind" kind; str buf "detail" detail
  | Trial { index; seed; lifetime } -> (
      int buf "index" index; int buf "seed" seed;
      match lifetime with Some l -> num buf "lifetime" l | None -> null buf "lifetime")
  | Span_finished { id; parent; name; start_time; duration; attrs = a } ->
      int buf "id" id;
      (match parent with Some p -> int buf "parent" p | None -> null buf "parent");
      str buf "name" name; num buf "start" start_time; num buf "duration" duration;
      key buf "attrs"; Buffer.add_char buf '{'; attrs buf false a; Buffer.add_char buf '}'
  | Fault { action; target; detail } ->
      str buf "action" action; str buf "target" target; str buf "detail" detail
  | Directive { step; strategy; detail } ->
      int buf "step" step; str buf "strategy" strategy; str buf "detail" detail
  | Note { detail; _ } -> str buf "detail" detail);
  Buffer.add_char buf '}'

let write buf ~time ev = write_with { last = Float.nan; text = "" } buf ~time ev
let writer () = write_with { last = Float.nan; text = "" }

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
