module Histo = Fortress_util.Histogram
module Table = Fortress_util.Table

type counter = { mutable c_value : int }

type histogram = {
  h_log : bool;
  h_lo : float;
  h_hi : float;
  h_bins : int;
  mutable h_data : Histo.t;
}

type metric = C of counter | H of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function C _ -> "counter" | H _ -> "histogram"

let register t name make match_existing =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> (
      match match_existing m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already registered as a %s" name (kind_name m)))
  | None ->
      let v, m = make () in
      Hashtbl.replace t.tbl name m;
      v

let counter t name =
  register t name
    (fun () ->
      let c = { c_value = 0 } in
      (c, C c))
    (function C c -> Some c | _ -> None)

let make_histo ~log_scale ~lo ~hi ~bins =
  if log_scale then Histo.create_log ~lo ~hi ~bins else Histo.create_linear ~lo ~hi ~bins

let histogram t ?(log_scale = false) ~lo ~hi ~bins name =
  register t name
    (fun () ->
      let h =
        {
          h_log = log_scale;
          h_lo = lo;
          h_hi = hi;
          h_bins = bins;
          h_data = make_histo ~log_scale ~lo ~hi ~bins;
        }
      in
      (h, H h))
    (function H h -> Some h | _ -> None)

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let observe h x = Histo.add h.h_data x

let counter_value c = c.c_value
let histogram_data h = h.h_data

let find_counter t name =
  match Hashtbl.find_opt t.tbl name with Some (C c) -> c.c_value | _ -> 0

type value =
  | Counter of int
  | Histogram of {
      count : int;
      underflow : int;
      overflow : int;
      sum : float;
      buckets : (float * float * int) list;
    }

let histogram_value data =
  let buckets =
    List.init (Histo.bin_count data) (fun i ->
        let lo, hi = Histo.bin_edges data i in
        (lo, hi, Histo.bin_value data i))
  in
  Histogram
    {
      count = Histo.count data;
      underflow = Histo.underflow data;
      overflow = Histo.overflow data;
      sum = Histo.sum data;
      buckets;
    }

let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | C c -> Counter c.c_value
        | H h -> histogram_value h.h_data
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let quantile v q =
  match v with
  | Counter _ -> None
  | Histogram { count; underflow; buckets; _ } ->
      if count = 0 then None
      else begin
        let q = Float.max 0.0 (Float.min 1.0 q) in
        let rank = q *. float_of_int count in
        (* Walk cumulative counts; interpolate linearly inside the owning
           bucket. Under/overflow mass clamps to the outermost finite edges. *)
        let rec walk cum = function
          | [] -> ( match List.rev buckets with (_, hi, _) :: _ -> Some hi | [] -> None)
          | (lo, hi, c) :: rest ->
              let cum' = cum +. float_of_int c in
              if c > 0 && rank <= cum' then
                Some (lo +. ((rank -. cum) /. float_of_int c *. (hi -. lo)))
              else walk cum' rest
        in
        if rank <= float_of_int underflow then
          match buckets with (lo, _, _) :: _ -> Some lo | [] -> None
        else walk (float_of_int underflow) buckets
      end

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> c.c_value <- 0
      | H h -> h.h_data <- make_histo ~log_scale:h.h_log ~lo:h.h_lo ~hi:h.h_hi ~bins:h.h_bins)
    t.tbl

let to_table t =
  let table = Table.create ~headers:[ "metric"; "kind"; "value" ] in
  Table.set_align table 0 Table.Left;
  Table.set_align table 1 Table.Left;
  List.iter
    (fun (name, v) ->
      let kind, rendered =
        match v with
        | Counter n -> ("counter", string_of_int n)
        | Histogram { count; underflow; overflow; sum; _ } ->
            let pct q = match quantile v q with Some x -> Printf.sprintf "%.4g" x | None -> "-" in
            ( "histogram",
              Printf.sprintf "n=%d sum=%.6g p50=%s p90=%s p99=%s under=%d over=%d" count sum
                (pct 0.5) (pct 0.9) (pct 0.99) underflow overflow )
      in
      Table.add_row table [ name; kind; rendered ])
    (snapshot t);
  table

let render t = Table.render (to_table t)
