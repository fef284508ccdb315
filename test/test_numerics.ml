(* Unit and property tests for the numerics substrate. *)

module Lambert_w = Ckpt_numerics.Lambert_w
module Special = Ckpt_numerics.Special
module Rootfind = Ckpt_numerics.Rootfind
module Quadrature = Ckpt_numerics.Quadrature
module Summary = Ckpt_numerics.Summary
module Log_hist = Ckpt_numerics.Log_hist

let check = Alcotest.check
let close ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

(* -- Lambert W ------------------------------------------------------------ *)

let test_w0_at_zero () = close "w0(0) = 0" 0. (Lambert_w.w0 0.)
let test_w0_at_e () = close "w0(e) = 1" 1. (Lambert_w.w0 (exp 1.))
let test_w0_branch_point () = close ~tol:1e-4 "w0(-1/e) = -1" (-1.) (Lambert_w.w0 (-.exp (-1.)))

let test_w0_identity () =
  List.iter
    (fun z ->
      let w = Lambert_w.w0 z in
      close ~tol:1e-10 (Printf.sprintf "w e^w = z at z = %g" z) 0.
        (((w *. exp w) -. z) /. (1. +. abs_float z)))
    [ -0.36; -0.3; -0.1; -0.01; 0.001; 0.5; 1.; 3.; 10.; 100.; 1e6 ]

let test_wm1_identity () =
  List.iter
    (fun z ->
      let w = Lambert_w.wm1 z in
      close ~tol:1e-9 (Printf.sprintf "wm1 identity at z = %g" z) z (w *. exp w);
      check Alcotest.bool "wm1 <= -1" true (w <= -1.))
    [ -0.36; -0.3; -0.2; -0.1; -0.01; -1e-4 ]

let test_w0_domain_error () =
  Alcotest.check_raises "below -1/e"
    (Invalid_argument "Lambert_w.w0: argument -0.5 below -1/e") (fun () ->
      ignore (Lambert_w.w0 (-0.5)))

let test_wm1_domain_error () =
  Alcotest.check_raises "positive argument"
    (Invalid_argument "Lambert_w.wm1: argument must be negative") (fun () ->
      ignore (Lambert_w.wm1 0.5))

let prop_w0_identity =
  QCheck2.Test.make ~name:"w0 identity on (-1/e, 20]" ~count:500
    QCheck2.Gen.(float_range (-0.367) 20.)
    (fun z ->
      let w = Lambert_w.w0 z in
      abs_float ((w *. exp w) -. z) <= 1e-8 *. (1. +. abs_float z))

(* -- Special functions ---------------------------------------------------- *)

let test_gamma_integers () =
  List.iteri
    (fun i expected ->
      close ~tol:1e-9 (Printf.sprintf "gamma(%d)" (i + 1)) expected
        (Special.gamma (float_of_int (i + 1))))
    [ 1.; 1.; 2.; 6.; 24.; 120. ]

let test_gamma_half () = close ~tol:1e-12 "gamma(1/2) = sqrt pi" (sqrt Float.pi) (Special.gamma 0.5)

let test_gamma_reflection () =
  (* Gamma(x) Gamma(1-x) = pi / sin(pi x) at x = 0.3. *)
  let x = 0.3 in
  close ~tol:1e-9 "reflection"
    (Float.pi /. sin (Float.pi *. x))
    (Special.gamma x *. Special.gamma (1. -. x))

let test_log_gamma_invalid () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Special.log_gamma: argument must be positive") (fun () ->
      ignore (Special.log_gamma 0.))

let test_incomplete_gamma_exponential () =
  (* P(1, x) = 1 - e^-x. *)
  List.iter
    (fun x ->
      close ~tol:1e-12 (Printf.sprintf "P(1, %g)" x)
        (1. -. exp (-.x))
        (Special.lower_incomplete_gamma_regularized ~a:1. ~x))
    [ 0.1; 0.5; 1.; 2.; 5.; 20. ]

let test_incomplete_gamma_limits () =
  close "P(a, 0) = 0" 0. (Special.lower_incomplete_gamma_regularized ~a:2.5 ~x:0.);
  close ~tol:1e-9 "P(a, inf) -> 1" 1.
    (Special.lower_incomplete_gamma_regularized ~a:2.5 ~x:200.)

let test_erf_values () =
  close "erf(0) = 0" 0. (Special.erf 0.);
  close ~tol:1e-7 "erf(1)" 0.8427007929497149 (Special.erf 1.);
  close ~tol:1e-9 "erf odd" (-.Special.erf 0.7) (Special.erf (-0.7));
  close ~tol:1e-9 "erfc complement" 1. (Special.erf 0.9 +. Special.erfc 0.9)

let test_normal_cdf () =
  close ~tol:1e-12 "cdf(mean) = 1/2" 0.5 (Special.normal_cdf ~mean:3. ~std:2. 3.);
  close ~tol:1e-6 "cdf(1.96)" 0.9750021 (Special.normal_cdf ~mean:0. ~std:1. 1.96)

let test_normal_quantile_inverts () =
  List.iter
    (fun p ->
      let x = Special.normal_quantile p in
      close ~tol:1e-9 (Printf.sprintf "quantile inverts at %g" p) p
        (Special.normal_cdf ~mean:0. ~std:1. x))
    [ 1e-6; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. -. 1e-6 ]

let test_normal_quantile_invalid () =
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Special.normal_quantile: probability must be in (0, 1)") (fun () ->
      ignore (Special.normal_quantile 0.))

(* -- Root finding ---------------------------------------------------------- *)

let test_bisect_cos () =
  let root = Rootfind.bisect ~f:(fun x -> cos x -. x) ~lo:0. ~hi:1. () in
  close ~tol:1e-9 "cos x = x" 0.7390851332151607 root

let test_brent_cos () =
  let root = Rootfind.brent ~f:(fun x -> cos x -. x) ~lo:0. ~hi:1. () in
  close ~tol:1e-9 "cos x = x" 0.7390851332151607 root

let test_brent_polynomial () =
  let f x = ((x +. 3.) *. (x -. 1.)) *. (x -. 1.) in
  let root = Rootfind.brent ~f ~lo:(-4.) ~hi:0. () in
  close ~tol:1e-7 "root -3" (-3.) root

let test_no_bracket () =
  Alcotest.check_raises "same sign" Rootfind.No_bracket (fun () ->
      ignore (Rootfind.bisect ~f:(fun x -> (x *. x) +. 1.) ~lo:(-1.) ~hi:1. ()))

let test_endpoint_root () =
  close "root at lo" 2. (Rootfind.brent ~f:(fun x -> x -. 2.) ~lo:2. ~hi:5. ())

let test_golden_min () =
  let x = Rootfind.golden_section_min ~f:(fun x -> (x -. 2.) ** 2.) ~lo:(-10.) ~hi:10. () in
  close ~tol:1e-6 "min of parabola" 2. x

let test_grid_then_golden_multimodal () =
  (* Global min of x^4 - 3x^2 + x on [-3, 3] is near -1.30. *)
  let f x = (x ** 4.) -. (3. *. x *. x) +. x in
  let x = Rootfind.grid_then_golden ~points:64 ~f ~lo:(-3.) ~hi:3. () in
  close ~tol:1e-4 "global minimum" (-1.300839) x

(* -- Quadrature ------------------------------------------------------------ *)

let test_simpson_poly () =
  close ~tol:1e-10 "int x^2 on [0,1]" (1. /. 3.)
    (Quadrature.adaptive_simpson ~f:(fun x -> x *. x) ~lo:0. ~hi:1. ())

let test_simpson_sin () =
  close ~tol:1e-9 "int sin on [0,pi]" 2. (Quadrature.adaptive_simpson ~f:sin ~lo:0. ~hi:Float.pi ())

let test_simpson_empty () =
  close "empty interval" 0. (Quadrature.adaptive_simpson ~f:sin ~lo:1. ~hi:1. ())

let test_gauss32_poly () =
  (* Exact for polynomials up to degree 63. *)
  let f x = (5. *. (x ** 5.)) -. (x ** 3.) +. 2. in
  close ~tol:1e-9 "degree-5 polynomial"
    ((5. /. 6. *. (2. ** 6.)) -. (2. ** 4. /. 4.) +. 4.)
    (Quadrature.gauss_legendre_32 ~f ~lo:0. ~hi:2.)

let test_integrate_to_infinity () =
  close ~tol:1e-8 "int e^-x = 1" 1. (Quadrature.integrate_to_infinity ~f:(fun x -> exp (-.x)) ~lo:0. ());
  close ~tol:1e-8 "gaussian tail" (sqrt Float.pi /. 2.)
    (Quadrature.integrate_to_infinity ~f:(fun x -> exp (-.x *. x)) ~lo:0. ())

(* -- Summary ---------------------------------------------------------------- *)

let test_summary_known () =
  let s = Summary.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  close "mean" 5. (Summary.mean s);
  close ~tol:1e-9 "variance" (32. /. 7.) (Summary.variance s);
  close "min" 2. (Summary.min_value s);
  close "max" 9. (Summary.max_value s);
  check Alcotest.int "count" 8 (Summary.count s)

let test_summary_stability () =
  (* Welford keeps precision with a huge common offset. *)
  let offset = 1e12 in
  let s = Summary.of_array (Array.map (fun x -> x +. offset) [| 1.; 2.; 3.; 4. |]) in
  close ~tol:1e-6 "variance under offset" (5. /. 3.) (Summary.variance s)

let test_summary_empty () =
  check Alcotest.bool "mean nan" true (Float.is_nan (Summary.mean Summary.empty));
  check Alcotest.bool "variance nan" true (Float.is_nan (Summary.variance (Summary.add Summary.empty 1.)))

let test_quantiles () =
  let data = [| 1.; 2.; 3.; 4.; 5. |] in
  close "median" 3. (Summary.median data);
  close "q0" 1. (Summary.quantile data 0.);
  close "q1" 5. (Summary.quantile data 1.);
  close "q interpolated" 1.5 (Summary.quantile data 0.125)

let test_confidence_interval () =
  (* n = 100, std 2 -> half-width 1.96 * 2 / 10 = 0.392 around the mean. *)
  let s = ref Summary.empty in
  for i = 0 to 99 do
    (* Alternating mean 10 +/- 2: sample std = 2 * sqrt(100/99). *)
    s := Summary.add !s (if i mod 2 = 0 then 8. else 12.)
  done;
  let lo, hi = Summary.mean_confidence_interval !s in
  close ~tol:1e-3 "center" 10. ((lo +. hi) /. 2.);
  let half = (hi -. lo) /. 2. in
  let expected = 1.959964 *. (2. *. sqrt (100. /. 99.)) /. 10. in
  close ~tol:1e-3 "half width" expected half;
  let lo99, hi99 = Summary.mean_confidence_interval ~confidence:0.99 !s in
  check Alcotest.bool "wider at 99%" true (hi99 -. lo99 > hi -. lo);
  let few = Summary.add Summary.empty 1. in
  let lo1, _ = Summary.mean_confidence_interval few in
  check Alcotest.bool "nan for n<2" true (Float.is_nan lo1);
  Alcotest.check_raises "bad confidence"
    (Invalid_argument "Summary.mean_confidence_interval: confidence outside (0, 1)") (fun () ->
      ignore (Summary.mean_confidence_interval ~confidence:1. !s))

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.quantile: empty data") (fun () ->
      ignore (Summary.quantile [||] 0.5));
  Alcotest.check_raises "p out of range" (Invalid_argument "Summary.quantile: p outside [0, 1]")
    (fun () -> ignore (Summary.quantile [| 1. |] 1.5))

let prop_mean_within_range =
  QCheck2.Test.make ~name:"mean lies within [min, max]" ~count:300
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Summary.add_all Summary.empty xs in
      Summary.mean s >= Summary.min_value s -. 1e-9
      && Summary.mean s <= Summary.max_value s +. 1e-9)

let test_merge_empty_sides () =
  let s = Summary.add_all Summary.empty [ 1.; 2.; 3. ] in
  check Alcotest.int "empty/empty count" 0 (Summary.count (Summary.merge Summary.empty Summary.empty));
  check Alcotest.bool "left empty is identity" true (Summary.merge Summary.empty s = s);
  check Alcotest.bool "right empty is identity" true (Summary.merge s Summary.empty = s)

let test_merge_known () =
  let a = Summary.of_array [| 2.; 4.; 4.; 4. |] in
  let b = Summary.of_array [| 5.; 5.; 7.; 9. |] in
  let m = Summary.merge a b in
  check Alcotest.int "count" 8 (Summary.count m);
  close "mean" 5. (Summary.mean m);
  close ~tol:1e-9 "variance" (32. /. 7.) (Summary.variance m);
  close "min" 2. (Summary.min_value m);
  close "max" 9. (Summary.max_value m)

(* The same-value comparison [merge (splits of xs) vs add_all xs] must
   tolerate rounding (the two accumulation orders differ) and treat
   the undefined cases (nan mean/variance of tiny samples) as equal. *)
let summary_agrees a b =
  let close a b = (Float.is_nan a && Float.is_nan b) || abs_float (a -. b) <= 1e-6 *. (1. +. abs_float a +. abs_float b) in
  Summary.count a = Summary.count b
  && close (Summary.mean a) (Summary.mean b)
  && close (Summary.variance a) (Summary.variance b)
  && close (Summary.min_value a) (Summary.min_value b)
  && close (Summary.max_value a) (Summary.max_value b)

let prop_merge_matches_add_all =
  QCheck2.Test.make ~name:"merge of a split = add_all of the whole" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 40) (float_range (-1e3) 1e3)) (list_size (int_range 0 40) (float_range (-1e3) 1e3)))
    (fun (xs, ys) ->
      let merged =
        Summary.merge (Summary.add_all Summary.empty xs) (Summary.add_all Summary.empty ys)
      in
      summary_agrees merged (Summary.add_all Summary.empty (xs @ ys)))

let prop_merge_pairwise_reduction =
  (* Replicate-ordered pairwise reduction of singletons — exactly what
     the parallel evaluation harness does — agrees with one pass. *)
  QCheck2.Test.make ~name:"pairwise singleton reduction = one pass" ~count:300
    QCheck2.Gen.(list_size (int_range 0 60) (float_range (-1e3) 1e3))
    (fun xs ->
      let reduced =
        List.fold_left
          (fun acc x -> Summary.merge acc (Summary.add Summary.empty x))
          Summary.empty xs
      in
      summary_agrees reduced (Summary.add_all Summary.empty xs))

let prop_quantile_monotone =
  QCheck2.Test.make ~name:"quantile is monotone in p" ~count:300
    QCheck2.Gen.(
      triple (array_size (int_range 1 40) (float_range (-1e3) 1e3)) (float_range 0. 1.)
        (float_range 0. 1.))
    (fun (data, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Summary.quantile data lo <= Summary.quantile data hi +. 1e-9)

(* -- Exact sums and distributional vectors ----------------------------------- *)

module Exact_sum = Ckpt_numerics.Exact_sum

let prop_exact_sum_order_independent =
  (* The whole point of the superaccumulator: any permutation of the
     observations gives the same bits. *)
  QCheck2.Test.make ~name:"Exact_sum is order-independent, bit for bit" ~count:200
    QCheck2.Gen.(list_size (int_range 0 40) (float_range (-1e12) 1e12))
    (fun xs ->
      let total l = List.fold_left Exact_sum.add Exact_sum.zero l in
      Exact_sum.equal (total xs) (total (List.rev xs)))

let vdim = 3
let vector_of rows = List.fold_left Summary.Vector.add (Summary.Vector.create ~dim:vdim) rows

let gen_vector =
  QCheck2.Gen.(
    map vector_of (list_size (int_range 0 25) (array_repeat vdim (float_range (-1e9) 1e9))))

let prop_vector_merge_commutative =
  QCheck2.Test.make ~name:"Vector.merge is commutative at the bit level" ~count:200
    QCheck2.Gen.(pair gen_vector gen_vector)
    (fun (a, b) -> Summary.Vector.equal (Summary.Vector.merge a b) (Summary.Vector.merge b a))

let prop_vector_merge_associative =
  QCheck2.Test.make ~name:"Vector.merge is associative at the bit level" ~count:200
    QCheck2.Gen.(triple gen_vector gen_vector gen_vector)
    (fun (a, b, c) ->
      Summary.Vector.equal
        (Summary.Vector.merge (Summary.Vector.merge a b) c)
        (Summary.Vector.merge a (Summary.Vector.merge b c)))

let test_vector_known () =
  let v = vector_of [ [| 1.; 10.; 100. |]; [| 2.; 20.; 200. |]; [| 3.; 30.; 300. |] ] in
  check Alcotest.int "dim" vdim (Summary.Vector.dim v);
  check Alcotest.int "count" 3 (Summary.Vector.count v);
  close "mean c0" 2. (Summary.Vector.mean v 0);
  close "mean c2" 200. (Summary.Vector.mean v 2);
  close "variance c1" 100. (Summary.Vector.variance v 1);
  close "min c0" 1. (Summary.Vector.min_value v 0);
  close "max c2" 300. (Summary.Vector.max_value v 2);
  let q = Summary.Vector.quantile v 1 0.5 in
  check Alcotest.bool "median within range" true (q >= 10. && q <= 30.);
  check Alcotest.bool "p50 <= p99" true
    (Summary.Vector.quantile v 1 0.5 <= Summary.Vector.quantile v 1 0.99);
  check Alcotest.bool "ci half-width positive" true (Summary.Vector.ci_half_width v 0 > 0.);
  (* [equal] is what the merge properties rest on: it must tell apart
     vectors that differ in one sum, one extreme or the dimension. *)
  check Alcotest.bool "equal to itself" true (Summary.Vector.equal v v);
  let w = vector_of [ [| 1.; 10.; 100. |]; [| 2.; 20.; 200. |]; [| 3.; 30.; 301. |] ] in
  check Alcotest.bool "one observation differs" false (Summary.Vector.equal v w);
  check Alcotest.bool "other dimension differs" false
    (Summary.Vector.equal (Summary.Vector.create ~dim:2) (Summary.Vector.create ~dim:3))

let test_vector_errors () =
  let v = Summary.Vector.create ~dim:2 in
  Alcotest.check_raises "dim 0 rejected" (Invalid_argument "Summary.Vector.create: dim < 1")
    (fun () -> ignore (Summary.Vector.create ~dim:0));
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Summary.Vector.add: dimension mismatch") (fun () ->
      ignore (Summary.Vector.add v [| 1. |]));
  Alcotest.check_raises "non-finite component"
    (Invalid_argument "Summary.Vector.add: non-finite component") (fun () ->
      ignore (Summary.Vector.add v [| 1.; nan |]));
  Alcotest.check_raises "merge dimension mismatch"
    (Invalid_argument "Summary.Vector.merge: dimension mismatch") (fun () ->
      ignore (Summary.Vector.merge v (Summary.Vector.create ~dim:3)))

(* -- log-scale histograms ---------------------------------------------------- *)

let hist_of values = List.fold_left Log_hist.add Log_hist.empty values

let test_hist_merge () =
  let xs = [ 0.001; 0.01; 0.1; 1.0 ] and ys = [ 2.0; 4.0; 64.0 ] in
  let merged = Log_hist.merge (hist_of xs) (hist_of ys) in
  let direct = hist_of (xs @ ys) in
  check Alcotest.int "merged count" direct.Log_hist.count merged.Log_hist.count;
  close "merged min" direct.Log_hist.min_v merged.Log_hist.min_v;
  close "merged max" direct.Log_hist.max_v merged.Log_hist.max_v;
  check Alcotest.bool "merged buckets" true (merged.Log_hist.buckets = direct.Log_hist.buckets);
  (* Commutativity and the identity element. *)
  check Alcotest.bool "commutative" true (Log_hist.merge (hist_of ys) (hist_of xs) = merged);
  check Alcotest.bool "empty is identity" true (Log_hist.merge direct Log_hist.empty = direct)

let test_hist_quantiles () =
  let h = hist_of [ 1.0; 2.0; 3.0; 10.0 ] in
  check Alcotest.int "count" 4 h.Log_hist.count;
  close "p0 is the exact minimum" 1.0 (Log_hist.quantile h 0.0);
  close "p1 is the exact maximum" 10.0 (Log_hist.quantile h 1.0);
  check Alcotest.bool "median within range" true
    (let m = Log_hist.quantile h 0.5 in
     m >= h.Log_hist.min_v /. 2. && m <= h.Log_hist.max_v *. 2.);
  check Alcotest.bool "empty quantile is NaN" true (Float.is_nan (Log_hist.quantile Log_hist.empty 0.5));
  check Alcotest.bool "bucket_lower monotone" true
    (Log_hist.bucket_lower 10 < Log_hist.bucket_lower 11)

let hist_gen =
  QCheck2.Gen.(map hist_of (list_size (int_range 1 40) (float_range 1e-6 1e6)))

(* Buckets, count and the exact extrema are all discrete, so merging is
   exactly commutative and associative. *)
let prop_hist_merge_commutative =
  QCheck2.Test.make ~name:"merge is commutative" ~count:100
    QCheck2.Gen.(pair hist_gen hist_gen)
    (fun (a, b) -> Log_hist.merge a b = Log_hist.merge b a)

let prop_hist_merge_associative =
  QCheck2.Test.make ~name:"merge is associative" ~count:100
    QCheck2.Gen.(triple hist_gen hist_gen hist_gen)
    (fun (a, b, c) -> Log_hist.merge (Log_hist.merge a b) c = Log_hist.merge a (Log_hist.merge b c))

let prop_hist_quantile_monotone =
  QCheck2.Test.make ~name:"quantile is monotone in q" ~count:100
    QCheck2.Gen.(triple hist_gen (float_range 0. 1.) (float_range 0. 1.))
    (fun (h, qa, qb) ->
      Log_hist.quantile h (Float.min qa qb) <= Log_hist.quantile h (Float.max qa qb))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_w0_identity; prop_mean_within_range; prop_merge_matches_add_all;
      prop_merge_pairwise_reduction; prop_quantile_monotone;
      prop_exact_sum_order_independent; prop_vector_merge_commutative;
      prop_vector_merge_associative;
    ]

let () =
  Alcotest.run "numerics"
    [
      ( "lambert_w",
        [
          Alcotest.test_case "w0(0)" `Quick test_w0_at_zero;
          Alcotest.test_case "w0(e)" `Quick test_w0_at_e;
          Alcotest.test_case "branch point" `Quick test_w0_branch_point;
          Alcotest.test_case "w0 identity" `Quick test_w0_identity;
          Alcotest.test_case "wm1 identity" `Quick test_wm1_identity;
          Alcotest.test_case "w0 domain" `Quick test_w0_domain_error;
          Alcotest.test_case "wm1 domain" `Quick test_wm1_domain_error;
        ] );
      ( "special",
        [
          Alcotest.test_case "gamma integers" `Quick test_gamma_integers;
          Alcotest.test_case "gamma(1/2)" `Quick test_gamma_half;
          Alcotest.test_case "reflection formula" `Quick test_gamma_reflection;
          Alcotest.test_case "log_gamma domain" `Quick test_log_gamma_invalid;
          Alcotest.test_case "P(1,x) exponential" `Quick test_incomplete_gamma_exponential;
          Alcotest.test_case "P limits" `Quick test_incomplete_gamma_limits;
          Alcotest.test_case "erf values" `Quick test_erf_values;
          Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
          Alcotest.test_case "normal quantile inverts" `Quick test_normal_quantile_inverts;
          Alcotest.test_case "normal quantile domain" `Quick test_normal_quantile_invalid;
        ] );
      ( "rootfind",
        [
          Alcotest.test_case "bisect cos" `Quick test_bisect_cos;
          Alcotest.test_case "brent cos" `Quick test_brent_cos;
          Alcotest.test_case "brent polynomial" `Quick test_brent_polynomial;
          Alcotest.test_case "no bracket" `Quick test_no_bracket;
          Alcotest.test_case "endpoint root" `Quick test_endpoint_root;
          Alcotest.test_case "golden section" `Quick test_golden_min;
          Alcotest.test_case "grid then golden" `Quick test_grid_then_golden_multimodal;
        ] );
      ( "quadrature",
        [
          Alcotest.test_case "simpson x^2" `Quick test_simpson_poly;
          Alcotest.test_case "simpson sin" `Quick test_simpson_sin;
          Alcotest.test_case "empty interval" `Quick test_simpson_empty;
          Alcotest.test_case "gauss32 polynomial" `Quick test_gauss32_poly;
          Alcotest.test_case "to infinity" `Quick test_integrate_to_infinity;
        ] );
      ( "summary",
        [
          Alcotest.test_case "known stats" `Quick test_summary_known;
          Alcotest.test_case "offset stability" `Quick test_summary_stability;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "merge empty sides" `Quick test_merge_empty_sides;
          Alcotest.test_case "merge known stats" `Quick test_merge_known;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "confidence interval" `Quick test_confidence_interval;
          Alcotest.test_case "quantile errors" `Quick test_quantile_errors;
        ] );
      ( "vector",
        [
          Alcotest.test_case "known stats" `Quick test_vector_known;
          Alcotest.test_case "errors" `Quick test_vector_errors;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "merge = concatenated stream" `Quick test_hist_merge;
          Alcotest.test_case "extrema and quantiles" `Quick test_hist_quantiles;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_hist_merge_commutative; prop_hist_merge_associative;
              prop_hist_quantile_monotone;
            ] );
      ("properties", qcheck_cases);
    ]
