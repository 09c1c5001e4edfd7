open Fortress_util

let check_float = Alcotest.(check (float 1e-9))
let check_close tolerance = Alcotest.(check (float tolerance))

(* ---- Prng ---- *)

(* The generator as first written, with its state a boxed int64 and a
   [draw] closure per [int]: the reference every public function of
   [Prng] must match draw for draw. *)
module Reference = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create ~seed = { state = mix (Int64.of_int seed) }
  let copy t = { state = t.state }

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  let split t = { state = mix (bits64 t) }

  let split_nth t n =
    if n <= 0 then invalid_arg "Prng.split_nth: n must be positive";
    let s = Int64.add t.state (Int64.mul golden_gamma (Int64.of_int n)) in
    { state = mix (mix s) }

  let int t ~bound =
    if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
    let bound64 = Int64.of_int bound in
    let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
    let rec draw () =
      let v = Int64.shift_right_logical (bits64 t) 1 in
      if v >= limit then draw () else Int64.to_int (Int64.rem v bound64)
    in
    draw ()

  let int_in_range t ~lo ~hi =
    if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
    lo + int t ~bound:(hi - lo + 1)

  let float t =
    let bits = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float bits *. 0x1p-53

  let float_in_range t ~lo ~hi = lo +. ((hi -. lo) *. float t)
  let bool t = Int64.logand (bits64 t) 1L = 1L

  let bernoulli t ~p =
    if p <= 0.0 then false
    else if p >= 1.0 then true
    else float t < p

  let exponential t ~rate =
    if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
    let u = 1.0 -. float t in
    -.log u /. rate

  let geometric t ~p =
    if not (p > 0.0 && p <= 1.0) then invalid_arg "Prng.geometric: p must be in (0, 1]";
    if p = 1.0 then 0
    else
      let u = 1.0 -. float t in
      int_of_float (Float.floor (log u /. log (1.0 -. p)))

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t ~bound:(i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done

  let choose t a =
    if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
    a.(int t ~bound:(Array.length a))

  let sample_without_replacement t ~k ~n =
    if k < 0 || n < 0 then invalid_arg "Prng.sample_without_replacement: negative argument";
    if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    for i = 0 to k - 1 do
      let j = n - k + i in
      let v = int t ~bound:(j + 1) in
      let pick = if Hashtbl.mem seen v then j else v in
      Hashtbl.replace seen pick ();
      out.(i) <- pick
    done;
    out
end

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_copy_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.copy a in
  let va = Prng.bits64 a in
  let vb = Prng.bits64 b in
  Alcotest.(check int64) "copy resumes identically" va vb

let test_prng_split_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  let xs = List.init 50 (fun _ -> Prng.bits64 a) in
  let ys = List.init 50 (fun _ -> Prng.bits64 b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_prng_int_bounds () =
  let p = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Prng.int p ~bound:17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let p = Prng.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int p ~bound:0))

let test_prng_int_in_range () =
  let p = Prng.create ~seed:5 in
  for _ = 1 to 1_000 do
    let v = Prng.int_in_range p ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_prng_float_range () =
  let p = Prng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let v = Prng.float p in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_float_mean () =
  let p = Prng.create ~seed:11 in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float p
  done;
  check_close 0.01 "mean near 0.5" 0.5 (!acc /. float_of_int n)

let test_prng_bernoulli_extremes () =
  let p = Prng.create ~seed:1 in
  Alcotest.(check bool) "p=0 false" false (Prng.bernoulli p ~p:0.0);
  Alcotest.(check bool) "p=1 true" true (Prng.bernoulli p ~p:1.0)

let test_prng_bernoulli_rate () =
  let p = Prng.create ~seed:13 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bernoulli p ~p:0.3 then incr hits
  done;
  check_close 0.01 "rate near 0.3" 0.3 (float_of_int !hits /. float_of_int n)

let test_prng_geometric_mean () =
  let p = Prng.create ~seed:17 in
  let n = 50_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Prng.geometric p ~p:0.25
  done;
  (* mean of failures-before-success is (1-p)/p = 3 *)
  check_close 0.15 "geometric mean" 3.0 (float_of_int !acc /. float_of_int n)

let test_prng_exponential_mean () =
  let p = Prng.create ~seed:19 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential p ~rate:2.0
  done;
  check_close 0.02 "exp mean 1/rate" 0.5 (!acc /. float_of_int n)

let test_prng_shuffle_permutation () =
  let p = Prng.create ~seed:23 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_prng_sample_without_replacement () =
  let p = Prng.create ~seed:29 in
  for _ = 1 to 200 do
    let s = Prng.sample_without_replacement p ~k:10 ~n:30 in
    Alcotest.(check int) "k elements" 10 (Array.length s);
    let distinct = List.sort_uniq compare (Array.to_list s) in
    Alcotest.(check int) "distinct" 10 (List.length distinct);
    Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30)) s
  done

let test_prng_sample_full () =
  let p = Prng.create ~seed:31 in
  let s = Prng.sample_without_replacement p ~k:5 ~n:5 in
  let sorted = List.sort compare (Array.to_list s) in
  Alcotest.(check (list int)) "whole population" [ 0; 1; 2; 3; 4 ] sorted

(* ---- Stats ---- *)

let test_stats_mean_var () =
  let t = Stats.create () in
  List.iter (Stats.add t) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stats.mean t);
  check_float "variance" (32.0 /. 7.0) (Stats.variance t);
  check_float "min" 2.0 (Stats.min t);
  check_float "max" 9.0 (Stats.max t);
  check_float "total" 40.0 (Stats.total t)

let test_stats_empty () =
  let t = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean t));
  Alcotest.(check int) "count" 0 (Stats.count t)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0; 30.0; 40.0 ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add whole) (xs @ ys);
  let m = Stats.merge a b in
  check_float "merged mean" (Stats.mean whole) (Stats.mean m);
  check_float "merged var" (Stats.variance whole) (Stats.variance m);
  Alcotest.(check int) "merged count" (Stats.count whole) (Stats.count m)

let test_stats_merge_empty () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add b 5.0;
  let m = Stats.merge a b in
  check_float "mean from non-empty side" 5.0 (Stats.mean m)

(* combine is the parallel-join primitive: a sequential accumulation over
   the whole dataset and a fold of per-chunk accumulators must agree on
   every derived statistic, including the confidence interval. *)
let test_stats_combine_parallel_join () =
  let chunks =
    [ [ 3.0; 1.0; 4.0; 1.0; 5.0 ]; [ 9.0; 2.0; 6.0 ]; [ 5.0; 3.0; 5.0; 8.0; 9.0; 7.0 ] ]
  in
  let whole = Stats.create () in
  List.iter (List.iter (Stats.add whole)) chunks;
  let parts =
    List.map
      (fun xs ->
        let s = Stats.create () in
        List.iter (Stats.add s) xs;
        s)
      chunks
  in
  let folded = List.fold_left Stats.combine (Stats.create ()) parts in
  Alcotest.(check int) "count" (Stats.count whole) (Stats.count folded);
  check_float "mean" (Stats.mean whole) (Stats.mean folded);
  check_float "variance" (Stats.variance whole) (Stats.variance folded);
  check_float "total" (Stats.total whole) (Stats.total folded);
  check_float "min" (Stats.min whole) (Stats.min folded);
  check_float "max" (Stats.max whole) (Stats.max folded);
  let lo, hi = Stats.confidence_interval whole in
  let lo', hi' = Stats.confidence_interval folded in
  check_float "ci95 lo" lo lo';
  check_float "ci95 hi" hi hi'

let test_stats_combine_does_not_mutate () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 10.0 ];
  ignore (Stats.combine a b);
  Alcotest.(check int) "a count untouched" 2 (Stats.count a);
  Alcotest.(check int) "b count untouched" 1 (Stats.count b);
  check_float "a mean untouched" 1.5 (Stats.mean a)

let test_stats_quantile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stats.median xs);
  check_float "q0" 1.0 (Stats.quantile xs ~q:0.0);
  check_float "q1" 5.0 (Stats.quantile xs ~q:1.0);
  check_float "q interpolation" 1.5 (Stats.quantile [| 1.0; 2.0 |] ~q:0.5)

let test_stats_quantile_unsorted () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median of unsorted" 3.0 (Stats.median xs)

let test_stats_summary () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let s = Stats.summarize xs in
  Alcotest.(check int) "n" 101 s.Stats.n;
  check_float "mean" 50.0 s.Stats.mean;
  check_float "median" 50.0 s.Stats.median;
  check_float "p25" 25.0 s.Stats.p25;
  Alcotest.(check bool) "ci contains mean" true
    (s.Stats.ci95_lo <= s.Stats.mean && s.Stats.mean <= s.Stats.ci95_hi)

let test_stats_ci_shrinks () =
  let interval xs =
    let t = Stats.create () in
    Array.iter (Stats.add t) xs;
    let lo, hi = Stats.confidence_interval t in
    hi -. lo
  in
  let p = Prng.create ~seed:37 in
  let draw n = Array.init n (fun _ -> Prng.float p) in
  Alcotest.(check bool) "wider with fewer samples" true (interval (draw 100) > interval (draw 10_000))

(* ---- Histogram ---- *)

let test_histogram_linear () =
  let h = Histogram.create_linear ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.7; 9.9; -1.0; 10.0; 25.0 ];
  Alcotest.(check int) "count includes out of range" 7 (Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check int) "bin 0" 1 (Histogram.bin_value h 0);
  Alcotest.(check int) "bin 1" 2 (Histogram.bin_value h 1);
  Alcotest.(check int) "bin 9" 1 (Histogram.bin_value h 9)

let test_histogram_edges () =
  let h = Histogram.create_linear ~lo:0.0 ~hi:10.0 ~bins:5 in
  let lo, hi = Histogram.bin_edges h 0 in
  check_float "first bin lo" 0.0 lo;
  check_float "first bin hi" 2.0 hi

let test_histogram_log () =
  let h = Histogram.create_log ~lo:1.0 ~hi:1000.0 ~bins:3 in
  List.iter (Histogram.add h) [ 2.0; 50.0; 500.0 ];
  Alcotest.(check int) "decade bins" 1 (Histogram.bin_value h 0);
  Alcotest.(check int) "decade bins" 1 (Histogram.bin_value h 1);
  Alcotest.(check int) "decade bins" 1 (Histogram.bin_value h 2)

let test_histogram_fraction () =
  let h = Histogram.create_linear ~lo:0.0 ~hi:1.0 ~bins:2 in
  List.iter (Histogram.add h) [ 0.1; 0.2; 0.8 ];
  check_float "fraction" (2.0 /. 3.0) (Histogram.fraction h 0)

let test_histogram_render () =
  let h = Histogram.create_linear ~lo:0.0 ~hi:1.0 ~bins:2 in
  Histogram.add h 0.1;
  let s = Histogram.render h in
  Alcotest.(check bool) "has a bar" true (String.contains s '#')

(* ---- Matrix ---- *)

let test_matrix_identity_mul () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Matrix.identity 2 in
  Alcotest.(check bool) "a * I = a" true (Matrix.equal (Matrix.mul a i) a);
  Alcotest.(check bool) "I * a = a" true (Matrix.equal (Matrix.mul i a) a)

let test_matrix_mul_known () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let expected = Matrix.of_rows [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |] in
  Alcotest.(check bool) "product" true (Matrix.equal (Matrix.mul a b) expected)

let test_matrix_transpose () =
  let a = Matrix.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let at = Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Matrix.rows at);
  check_float "entry" 2.0 (Matrix.get at 1 0)

let test_matrix_solve () =
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Matrix.solve a [| 5.0; 10.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_matrix_solve_permuted () =
  (* forces pivoting: zero on the diagonal *)
  let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Matrix.solve a [| 7.0; 9.0 |] in
  check_float "x0" 9.0 x.(0);
  check_float "x1" 7.0 x.(1)

let test_matrix_inverse_roundtrip () =
  let a = Matrix.of_rows [| [| 4.0; 7.0; 1.0 |]; [| 2.0; 6.0; 0.5 |]; [| 1.0; 1.0; 3.0 |] |] in
  let inv = Matrix.inverse a in
  Alcotest.(check bool) "a * a^-1 = I" true
    (Matrix.equal ~eps:1e-8 (Matrix.mul a inv) (Matrix.identity 3))

let test_matrix_singular () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Matrix.inverse a with
  | _ -> Alcotest.fail "singular matrix inverted"
  | exception Matrix.Singular { dim; col } ->
      Alcotest.(check int) "dim carried" 2 dim;
      Alcotest.(check bool) "col in range" true (col >= 0 && col < 2)

let test_matrix_apply () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let v = Matrix.apply a [| 1.0; 1.0 |] in
  check_float "row 0" 3.0 v.(0);
  check_float "row 1" 7.0 v.(1);
  let u = Matrix.apply_left [| 1.0; 1.0 |] a in
  check_float "col 0" 4.0 u.(0);
  check_float "col 1" 6.0 u.(1)

let test_matrix_row_sums () =
  let a = Matrix.of_rows [| [| 0.25; 0.75 |]; [| 0.5; 0.5 |] |] in
  let sums = Matrix.row_sums a in
  check_float "stochastic row" 1.0 sums.(0);
  check_float "stochastic row" 1.0 sums.(1)

let test_matrix_dim_mismatch () =
  let a = Matrix.make ~rows:2 ~cols:3 0.0 in
  let b = Matrix.make ~rows:2 ~cols:3 0.0 in
  Alcotest.check_raises "mul mismatch" (Invalid_argument "Matrix.mul: dimension mismatch")
    (fun () -> ignore (Matrix.mul a b))

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~headers:[ "alpha"; "EL" ] in
  Table.add_row t [ "0.001"; "1000" ];
  Table.add_row t [ "0.01"; "100" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 5 = "alpha");
  Alcotest.(check int) "rows" 2 (Table.row_count t)

let test_table_width_check () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "bad width" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_csv () =
  let t = Table.create ~headers:[ "k"; "v" ] in
  Table.add_row t [ "x,y"; "1" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv" "k,v\n\"x,y\",1\n" csv

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_float_row () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Table.add_float_row t [ 0.5; 100.0 ];
  let s = Table.render t in
  Alcotest.(check bool) "contains formatted values" true
    (contains_substring s "0.5" && contains_substring s "100")

(* ---- Probability ---- *)

let test_prob_complement_product () =
  check_float "single" 0.5 (Probability.complement_product [ 0.5 ]);
  check_float "pair" 0.75 (Probability.complement_product [ 0.5; 0.5 ]);
  check_float "with certain event" 1.0 (Probability.complement_product [ 0.1; 1.0 ]);
  check_float "empty" 0.0 (Probability.complement_product [])

let test_prob_binomial () =
  check_float "pmf k=0" 0.25 (Probability.binomial_pmf ~k:0 ~p:0.5 ~n:2);
  check_float "pmf k=1" 0.5 (Probability.binomial_pmf ~k:1 ~p:0.5 ~n:2);
  check_float "pmf beyond n" 0.0 (Probability.binomial_pmf ~k:3 ~p:0.5 ~n:2);
  check_float "p=0" 1.0 (Probability.binomial_pmf ~k:0 ~p:0.0 ~n:5);
  check_float "p=1" 1.0 (Probability.binomial_pmf ~k:5 ~p:1.0 ~n:5)

let test_prob_at_least () =
  check_float "k=0 always" 1.0 (Probability.at_least ~k:0 ~p:0.1 ~n:4);
  check_float "k>n never" 0.0 (Probability.at_least ~k:5 ~p:0.9 ~n:4);
  (* P(X>=1) = 1 - (1-p)^n *)
  check_float "k=1" (1.0 -. (0.9 ** 4.0)) (Probability.at_least ~k:1 ~p:0.1 ~n:4);
  (* S0's per-step law: P(X>=2) among 4 *)
  let p = 0.1 in
  let expected = 1.0 -. ((1.0 -. p) ** 4.0) -. (4.0 *. p *. ((1.0 -. p) ** 3.0)) in
  check_float "k=2 of 4" expected (Probability.at_least ~k:2 ~p ~n:4)

let test_prob_geometric_lifetime () =
  check_float "EL=1/p" 100.0 (Probability.geometric_lifetime 0.01);
  Alcotest.(check bool) "p=0 infinite" true (Probability.geometric_lifetime 0.0 = infinity)

let test_prob_expected_lifetime_constant () =
  let el = Probability.expected_lifetime (fun _ -> 0.01) in
  check_close 1e-6 "matches geometric closed form" 100.0 el

let test_prob_expected_lifetime_increasing_hazard () =
  (* certain compromise at step 3 *)
  let hazard i = if i >= 3 then 1.0 else 0.0 in
  check_float "EL = 3" 3.0 (Probability.expected_lifetime hazard)

let test_prob_expected_lifetime_mixture () =
  (* h1 = 0.5, then certain at step 2: EL = 0.5*1 + 0.5*2 = 1.5 *)
  let hazard i = if i = 1 then 0.5 else 1.0 in
  check_float "mixture" 1.5 (Probability.expected_lifetime hazard)

let test_prob_survival () =
  let hazard _ = 0.1 in
  check_close 1e-12 "survival product" (0.9 ** 3.0) (Probability.survival hazard 3)

let test_prob_clamp () =
  check_float "clamp low" 0.0 (Probability.clamp01 (-1.0));
  check_float "clamp high" 1.0 (Probability.clamp01 2.0);
  check_float "clamp id" 0.25 (Probability.clamp01 0.25)

(* ---- Plot ---- *)

let test_plot_basic_render () =
  let p = Plot.create ~x_label:"alpha" ~y_label:"EL" () in
  Plot.add_series p ~name:"s1" ~glyph:'a' [ (1e-4, 1e4); (1e-3, 1e3); (1e-2, 1e2) ];
  let s = Plot.render p in
  Alcotest.(check bool) "contains glyph" true (String.contains s 'a');
  Alcotest.(check bool) "contains legend" true (contains_substring s "s1");
  Alcotest.(check bool) "contains axis label" true (contains_substring s "alpha")

let test_plot_multi_series () =
  let p = Plot.create () in
  Plot.add_series p ~name:"one" ~glyph:'x' [ (1.0, 1.0); (10.0, 10.0) ];
  Plot.add_series p ~name:"two" ~glyph:'y' [ (1.0, 10.0); (10.0, 1.0) ];
  let s = Plot.render p in
  Alcotest.(check bool) "both glyphs" true (String.contains s 'x' && String.contains s 'y')

let test_plot_duplicate_glyph () =
  let p = Plot.create () in
  Plot.add_series p ~name:"one" ~glyph:'x' [ (1.0, 1.0) ];
  Alcotest.check_raises "duplicate" (Invalid_argument "Plot.add_series: duplicate glyph")
    (fun () -> Plot.add_series p ~name:"two" ~glyph:'x' [ (2.0, 2.0) ])

let test_plot_empty_series () =
  let p = Plot.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Plot.add_series: empty series") (fun () ->
      Plot.add_series p ~name:"none" ~glyph:'z' [])

let test_plot_log_skips_nonpositive () =
  let p = Plot.create () in
  Plot.add_series p ~name:"mixed" ~glyph:'m' [ (-1.0, 5.0); (0.0, 5.0); (2.0, 5.0) ];
  (* renders using only the positive point *)
  let s = Plot.render p in
  Alcotest.(check bool) "renders" true (String.contains s 'm')

let test_plot_all_nonpositive_fails () =
  let p = Plot.create () in
  Plot.add_series p ~name:"bad" ~glyph:'b' [ (-1.0, -1.0) ];
  Alcotest.check_raises "nothing drawable" (Failure "Plot.render: nothing to draw") (fun () ->
      ignore (Plot.render p))

let test_plot_linear_scale () =
  let p = Plot.create ~x_scale:Plot.Linear_scale ~y_scale:Plot.Linear_scale () in
  Plot.add_series p ~name:"neg ok" ~glyph:'n' [ (-5.0, -5.0); (5.0, 5.0) ];
  Alcotest.(check bool) "negative values drawable on linear axes" true
    (String.contains (Plot.render p) 'n')

(* ---- Prng against the reference ----
   One random program of calls runs on a [Prng] and a [Reference] built
   from the same seed: every call must return the same value (floats
   compared bit for bit), and both streams must be at the same position
   after it, which the next raw draw shows. *)

type prng_call =
  | Bits64
  | Int of int
  | Int_in_range of int * int
  | Float
  | Float_in_range of float * float
  | Bool
  | Bernoulli of float
  | Exponential of float
  | Geometric of float
  | Shuffle of int
  | Choose of int
  | Sample of int * int
  | Split
  | Split_nth of int
  | Copy

(* A bound that divides max_int64 = 2^63 - 1 (here 7 of its divisors) is
   the edge of [Prng.int]'s rejection test: its last full block starts
   exactly at max_int64 - bound and must be kept. *)
let max64_divisors =
  List.map
    (fun d -> Int64.to_int (Int64.div Int64.max_int (Int64.of_int d)))
    [ 7; 49; 73; 127; 337; 92737; 649657 ]

(* bounds from the whole positive range: small ones, any, and the top
   quarter (2^61, max_int], where up to a third of the raw draws fall in
   the block cut short at max_int64 and are rejected *)
let gen_bound =
  QCheck.Gen.(
    oneof
      [ int_range 1 100; int_range 1 max_int; int_range ((1 lsl 61) + 1) max_int;
        oneofl
          ([ 1; 2; 3; 7; 1 lsl 61; (1 lsl 61) + 1; (1 lsl 62) - 1; max_int ] @ max64_divisors);
      ])

let gen_call =
  QCheck.Gen.(
    oneof
      [
        return Bits64;
        map (fun b -> Int b) gen_bound;
        map2
          (fun lo span -> Int_in_range (lo, lo + span))
          (int_range (-1000) 1000) (int_bound 5000);
        return Float;
        map2
          (fun lo w -> Float_in_range (lo, lo +. w))
          (float_range (-10.) 10.) (float_bound_inclusive 5.);
        return Bool;
        map (fun p -> Bernoulli p) (oneof [ float_range (-0.5) 1.5; oneofl [ 0.0; 1.0; 0.5 ] ]);
        map (fun r -> Exponential r) (float_range 0.01 10.0);
        map (fun p -> Geometric p) (oneof [ float_range 1e-4 1.0; return 1.0 ]);
        map (fun n -> Shuffle n) (int_bound 40);
        map (fun n -> Choose n) (int_range 1 50);
        map2 (fun k extra -> Sample (k, k + extra)) (int_bound 20) (int_bound 30);
        return Split;
        map (fun n -> Split_nth n) (int_range 1 100_000);
        return Copy;
      ])

let float_bits x = Int64.to_string (Int64.bits_of_float x)
let show_ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* the call's result on each side, as text, and the generators that
   must stay in step after it (children and copies included) *)
let apply_call p r = function
  | Bits64 -> (Int64.to_string (Prng.bits64 p), Int64.to_string (Reference.bits64 r), [])
  | Int bound -> (string_of_int (Prng.int p ~bound), string_of_int (Reference.int r ~bound), [])
  | Int_in_range (lo, hi) ->
      ( string_of_int (Prng.int_in_range p ~lo ~hi),
        string_of_int (Reference.int_in_range r ~lo ~hi),
        [] )
  | Float -> (float_bits (Prng.float p), float_bits (Reference.float r), [])
  | Float_in_range (lo, hi) ->
      ( float_bits (Prng.float_in_range p ~lo ~hi),
        float_bits (Reference.float_in_range r ~lo ~hi),
        [] )
  | Bool -> (string_of_bool (Prng.bool p), string_of_bool (Reference.bool r), [])
  | Bernoulli q ->
      (string_of_bool (Prng.bernoulli p ~p:q), string_of_bool (Reference.bernoulli r ~p:q), [])
  | Exponential rate ->
      (float_bits (Prng.exponential p ~rate), float_bits (Reference.exponential r ~rate), [])
  | Geometric q ->
      (string_of_int (Prng.geometric p ~p:q), string_of_int (Reference.geometric r ~p:q), [])
  | Shuffle n ->
      let a = Array.init n Fun.id and b = Array.init n Fun.id in
      Prng.shuffle p a;
      Reference.shuffle r b;
      (show_ints a, show_ints b, [])
  | Choose n ->
      let a = Array.init n (fun i -> i * 7) in
      (string_of_int (Prng.choose p a), string_of_int (Reference.choose r a), [])
  | Sample (k, n) ->
      ( show_ints (Prng.sample_without_replacement p ~k ~n),
        show_ints (Reference.sample_without_replacement r ~k ~n),
        [] )
  | Split -> ("", "", [ (Prng.split p, Reference.split r) ])
  | Split_nth n -> ("", "", [ (Prng.split_nth p n, Reference.split_nth r n) ])
  | Copy -> ("", "", [ (Prng.copy p, Reference.copy r) ])

let in_step (p, r) = Prng.bits64 p = Reference.bits64 r

let prop_prng_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"every Prng function returns the reference's values"
    QCheck.(make Gen.(pair int (list_size (int_range 1 40) gen_call)))
    (fun (seed, calls) ->
      let p = Prng.create ~seed and r = Reference.create ~seed in
      List.for_all
        (fun call ->
          let a, b, children = apply_call p r call in
          a = b && List.for_all in_step children && in_step (p, r))
        calls)

(* every draw agrees under bounds in (2^61, max_int], over enough draws
   that many are rejected on the way, and under the large divisors of
   max_int64, where up to a seventh of them fall in the edge block *)
let test_prng_int_top_bounds () =
  let p = Prng.create ~seed:61 and r = Reference.create ~seed:61 in
  let bounds =
    Array.of_list ([ (1 lsl 61) + 1; (3 lsl 60) + 12345; (1 lsl 62) - 1; max_int ] @ max64_divisors)
  in
  for i = 1 to 100_000 do
    let bound = bounds.(i mod Array.length bounds) in
    let a = Prng.int p ~bound and b = Reference.int r ~bound in
    if a <> b then Alcotest.failf "draw %d under bound %d: %d <> %d" i bound a b
  done;
  Alcotest.(check int64) "streams in step" (Reference.bits64 r) (Prng.bits64 p)

(* the draws behind every probe, latency sample and Monte-Carlo step *)
let test_prng_draw_allocation () =
  let p = Prng.create ~seed:3 in
  let draws = 10_000 in
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to draws do
      f ()
    done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.0)) "int" 0.0
    (words (fun () -> ignore (Sys.opaque_identity (Prng.int p ~bound:1000))));
  Alcotest.(check (float 0.0)) "bool" 0.0
    (words (fun () -> ignore (Sys.opaque_identity (Prng.bool p))));
  Alcotest.(check (float 0.0)) "bernoulli" 0.0
    (words (fun () -> ignore (Sys.opaque_identity (Prng.bernoulli p ~p:0.3))))

(* ---- qcheck properties ---- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"prng int always in bounds" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let p = Prng.create ~seed in
        let v = Prng.int p ~bound in
        v >= 0 && v < bound);
    Test.make ~name:"quantile within min-max" ~count:200
      (pair (list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.)) (float_range 0.0 1.0))
      (fun (xs, q) ->
        let a = Array.of_list xs in
        let v = Stats.quantile a ~q in
        let lo = Array.fold_left Float.min infinity a in
        let hi = Array.fold_left Float.max neg_infinity a in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
    Test.make ~name:"matrix solve then multiply round-trips" ~count:100
      (list_of_size (Gen.return 9) (float_range (-10.) 10.))
      (fun cells ->
        assume (List.length cells = 9);
        let a =
          Matrix.init ~rows:3 ~cols:3 (fun i j ->
              List.nth cells ((3 * i) + j) +. if i = j then 20.0 else 0.0)
        in
        let b = [| 1.0; 2.0; 3.0 |] in
        let x = Matrix.solve a b in
        let back = Matrix.apply a x in
        Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) back b);
    Test.make ~name:"complement_product in [0,1]" ~count:300
      (list (float_range 0.0 1.0))
      (fun ps ->
        let v = Probability.complement_product ps in
        v >= 0.0 && v <= 1.0);
    Test.make ~name:"expected lifetime of constant hazard is 1/p" ~count:100
      (float_range 0.001 0.9)
      (fun p ->
        let el = Probability.expected_lifetime (fun _ -> p) in
        Float.abs (el -. (1.0 /. p)) /. (1.0 /. p) < 1e-6);
    Test.make ~name:"merge equals bulk accumulate" ~count:200
      (pair (list (float_range (-50.) 50.)) (list (float_range (-50.) 50.)))
      (fun (xs, ys) ->
        assume (xs <> [] && ys <> []);
        let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
        List.iter (Stats.add a) xs;
        List.iter (Stats.add b) ys;
        List.iter (Stats.add whole) (xs @ ys);
        let m = Stats.merge a b in
        Float.abs (Stats.mean m -. Stats.mean whole) < 1e-9);
  ]

let () =
  Alcotest.run "fortress_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy is independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "split is independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid bound" `Quick test_prng_int_invalid;
          Alcotest.test_case "int_in_range" `Quick test_prng_int_in_range;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
          Alcotest.test_case "geometric mean" `Quick test_prng_geometric_mean;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle keeps elements" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_prng_sample_without_replacement;
          Alcotest.test_case "sample full population" `Quick test_prng_sample_full;
          QCheck_alcotest.to_alcotest prop_prng_matches_reference;
          Alcotest.test_case "int near max_int matches the reference" `Quick
            test_prng_int_top_bounds;
          Alcotest.test_case "draw allocation" `Quick test_prng_draw_allocation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean and variance" `Quick test_stats_mean_var;
          Alcotest.test_case "empty accumulator" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge with empty" `Quick test_stats_merge_empty;
          Alcotest.test_case "combine is a parallel join" `Quick
            test_stats_combine_parallel_join;
          Alcotest.test_case "combine mutates neither input" `Quick
            test_stats_combine_does_not_mutate;
          Alcotest.test_case "quantiles" `Quick test_stats_quantile;
          Alcotest.test_case "quantile unsorted input" `Quick test_stats_quantile_unsorted;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "ci shrinks with n" `Quick test_stats_ci_shrinks;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "linear binning" `Quick test_histogram_linear;
          Alcotest.test_case "bin edges" `Quick test_histogram_edges;
          Alcotest.test_case "log binning" `Quick test_histogram_log;
          Alcotest.test_case "fractions" `Quick test_histogram_fraction;
          Alcotest.test_case "render" `Quick test_histogram_render;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "identity multiply" `Quick test_matrix_identity_mul;
          Alcotest.test_case "known product" `Quick test_matrix_mul_known;
          Alcotest.test_case "transpose" `Quick test_matrix_transpose;
          Alcotest.test_case "solve 2x2" `Quick test_matrix_solve;
          Alcotest.test_case "solve needs pivoting" `Quick test_matrix_solve_permuted;
          Alcotest.test_case "inverse round-trip" `Quick test_matrix_inverse_roundtrip;
          Alcotest.test_case "singular detection" `Quick test_matrix_singular;
          Alcotest.test_case "apply vectors" `Quick test_matrix_apply;
          Alcotest.test_case "row sums" `Quick test_matrix_row_sums;
          Alcotest.test_case "dimension mismatch" `Quick test_matrix_dim_mismatch;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width check" `Quick test_table_width_check;
          Alcotest.test_case "csv escaping" `Quick test_table_csv;
          Alcotest.test_case "float rows" `Quick test_table_float_row;
        ] );
      ( "plot",
        [
          Alcotest.test_case "basic render" `Quick test_plot_basic_render;
          Alcotest.test_case "multiple series" `Quick test_plot_multi_series;
          Alcotest.test_case "duplicate glyph" `Quick test_plot_duplicate_glyph;
          Alcotest.test_case "empty series" `Quick test_plot_empty_series;
          Alcotest.test_case "log skips non-positive" `Quick test_plot_log_skips_nonpositive;
          Alcotest.test_case "nothing drawable" `Quick test_plot_all_nonpositive_fails;
          Alcotest.test_case "linear scale" `Quick test_plot_linear_scale;
        ] );
      ( "probability",
        [
          Alcotest.test_case "complement product" `Quick test_prob_complement_product;
          Alcotest.test_case "binomial pmf" `Quick test_prob_binomial;
          Alcotest.test_case "at_least" `Quick test_prob_at_least;
          Alcotest.test_case "geometric lifetime" `Quick test_prob_geometric_lifetime;
          Alcotest.test_case "EL constant hazard" `Quick test_prob_expected_lifetime_constant;
          Alcotest.test_case "EL step hazard" `Quick test_prob_expected_lifetime_increasing_hazard;
          Alcotest.test_case "EL mixture" `Quick test_prob_expected_lifetime_mixture;
          Alcotest.test_case "survival" `Quick test_prob_survival;
          Alcotest.test_case "clamp" `Quick test_prob_clamp;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
