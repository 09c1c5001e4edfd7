module Keyspace = Fortress_defense.Keyspace
module Prng = Fortress_util.Prng

(* Eliminated keys are bits of [tried]. While more than half the keys are
   untried, a guess is drawn by rejection against the bitset. Past that
   switch, one draw [j] picks the j-th untried key in ascending order,
   found by descending a Fenwick tree of untried counts per 64-key block
   and scanning that one block. The tree is built when a target first
   crosses the switch and is then kept in step with every crash. *)

type t = {
  ks : Keyspace.t;
  size : int;
  tried : Bytes.t;  (* bit [g land 7] of byte [g lsr 3] is set once key [g] is ruled out *)
  mutable eliminated : int;
  (* 1-based Fenwick tree of untried counts per block; allocated at the
     first switch and reused after a rekey *)
  mutable fenwick : int array;
  mutable dense : bool;  (* [fenwick] is built and in step with [tried] *)
  mutable key : int option;
}

let block_log = 6 (* 64 keys, 8 bytes per block *)

let byte_pop =
  let rec pop b = if b = 0 then 0 else (b land 1) + pop (b lsr 1) in
  String.init 256 (fun b -> Char.chr (pop b))

let create ks =
  let size = Keyspace.size ks in
  {
    ks;
    size;
    tried = Bytes.make ((size + 7) lsr 3) '\000';
    eliminated = 0;
    fenwick = [||];
    dense = false;
    key = None;
  }

let keyspace t = t.ks
let eliminated t = t.eliminated
let remaining t = t.size - t.eliminated
let known_key t = t.key

(* Only for keys this module derived itself (draws, scans), which lie in
   [0, size); keys from callers go through [check_key]. *)
let is_tried t g = Char.code (Bytes.unsafe_get t.tried (g lsr 3)) land (1 lsl (g land 7)) <> 0

(* Untried keys of byte [i]: bits past [size] are never set. *)
let untried_in_byte t i =
  let tried = Char.code (String.unsafe_get byte_pop (Char.code (Bytes.get t.tried i))) in
  min 8 (t.size - (i lsl 3)) - tried

let untried_in_block t b =
  let first = b lsl (block_log - 3) in
  let last = min (Bytes.length t.tried) (first + (1 lsl (block_log - 3))) - 1 in
  let n = ref 0 in
  for i = first to last do
    n := !n + untried_in_byte t i
  done;
  !n

let build_fenwick t =
  let nb = (t.size + (1 lsl block_log) - 1) lsr block_log in
  if Array.length t.fenwick = 0 then t.fenwick <- Array.make (nb + 1) 0;
  let f = t.fenwick in
  for i = 1 to nb do
    f.(i) <- untried_in_block t (i - 1)
  done;
  for i = 1 to nb do
    let parent = i + (i land (-i)) in
    if parent <= nb then f.(parent) <- f.(parent) + f.(i)
  done;
  t.dense <- true

(* The [j]-th (0-based) untried key in ascending order. *)
let select t j =
  let f = t.fenwick in
  let nb = Array.length f - 1 in
  let step = ref 1 in
  while !step * 2 <= nb do
    step := !step * 2
  done;
  (* descend to the last block prefix holding at most [j] untried keys *)
  let pos = ref 0 and rank = ref j in
  while !step > 0 do
    let next = !pos + !step in
    if next <= nb && f.(next) <= !rank then begin
      pos := next;
      rank := !rank - f.(next)
    end;
    step := !step lsr 1
  done;
  (* the key is untried key [!rank] of block [!pos]: skip whole bytes, then keys *)
  let rec in_byte i rank =
    let free = untried_in_byte t i in
    if rank >= free then in_byte (i + 1) (rank - free) else in_key (i lsl 3) rank
  and in_key g rank =
    if is_tried t g then in_key (g + 1) rank else if rank = 0 then g else in_key (g + 1) (rank - 1)
  in
  in_byte (!pos lsl (block_log - 3)) !rank

let next_guess t prng =
  match t.key with
  | Some _ as known -> known
  | None ->
      let n = t.size in
      let left = remaining t in
      if left <= 0 then
        (* every key eliminated with none confirmed: only possible when the
           target changed keys under us (e.g. missed a rekey signal under
           faults) — the attacker is exhausted, not the program wrong *)
        None
      else if left > n / 2 then begin
        (* rejection sampling is cheap while most keys are untried *)
        let rec draw () =
          let g = Prng.int prng ~bound:n in
          if is_tried t g then draw () else g
        in
        Some (draw ())
      end
      else begin
        if not t.dense then build_fenwick t;
        Some (select t (Prng.int prng ~bound:left))
      end

let check_key t fn guess =
  if not (Keyspace.contains t.ks guess) then
    invalid_arg (Printf.sprintf "Knowledge.%s: key %d is outside [0, %d)" fn guess t.size)

let observe_crash t ~guess =
  check_key t "observe_crash" guess;
  let i = guess lsr 3 and bit = 1 lsl (guess land 7) in
  let byte = Char.code (Bytes.get t.tried i) in
  if byte land bit = 0 then begin
    Bytes.set t.tried i (Char.unsafe_chr (byte lor bit));
    t.eliminated <- t.eliminated + 1;
    if t.dense then begin
      let f = t.fenwick in
      let nb = Array.length f - 1 in
      let slot = ref ((guess lsr block_log) + 1) in
      while !slot <= nb do
        f.(!slot) <- f.(!slot) - 1;
        slot := !slot + (!slot land (- !slot))
      done
    end
  end

let observe_intrusion t ~guess =
  check_key t "observe_intrusion" guess;
  t.key <- Some guess

let on_target_rekeyed t =
  if t.eliminated > 0 then Bytes.fill t.tried 0 (Bytes.length t.tried) '\000';
  t.eliminated <- 0;
  t.dense <- false;
  t.key <- None

let on_target_recovered _ = ()
