(* The benchmark's own wall-clock spans, one around each public call it
   makes into the library. Spans live in memory while the workload runs
   and are written out as JSON lines when it ends, so recording costs two
   clock reads and one cons per call. The spans of one op share its op
   id; [parent] is the id of the span that was open when this one began
   (-1 at top level). Recording is off until [enable]; a disabled
   [record] just calls its body. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  start : float;  (** seconds since the recorder's epoch *)
  stop : float;
}

let enabled = ref false
let epoch = ref 0.0
let next_id = ref 0
let open_stack : int list ref = ref []
let finished : span list ref = ref []

let enable ~epoch:e =
  enabled := true;
  epoch := e

let disable () = enabled := false

let record ~op name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let start = Unix.gettimeofday () -. !epoch in
    let close () =
      let stop = Unix.gettimeofday () -. !epoch in
      open_stack := List.tl !open_stack;
      finished := { id; name; op; parent; start; stop } :: !finished
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let all () = List.rev !finished

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) (all ())

let to_json s =
  Printf.sprintf
    {|{"id": %d, "name": "%s", "op": %d, "parent": %d, "start": %.9f, "end": %.9f}|} s.id
    s.name s.op s.parent s.start s.stop

let write path ~header =
  let oc = open_out path in
  output_string oc header;
  output_char oc '\n';
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    (all ());
  close_out oc
