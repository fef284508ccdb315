(* Unit and property tests for the core contribution: Theorem 1, the
   DP context, the age-summary compression and both dynamic programs. *)

module Theory = Ckpt_core.Theory
module Dp_context = Ckpt_core.Dp_context
module Age_summary = Ckpt_core.Age_summary
module Dp_makespan = Ckpt_core.Dp_makespan
module Dp_next_failure = Ckpt_core.Dp_next_failure
module D = Ckpt_distributions.Distribution
module Exponential = Ckpt_distributions.Exponential
module Weibull = Ckpt_distributions.Weibull

let check = Alcotest.check
let close ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

(* -- Theorem 1 ------------------------------------------------------------- *)

let test_tlost_limits () =
  close ~tol:1e-8 "w/2 limit" 0.05 (Theory.expected_tlost ~rate:1e-9 ~window:0.1);
  close ~tol:1e-3 "1/rate limit" 100. (Theory.expected_tlost ~rate:0.01 ~window:1e5)

let test_trec_simplification () =
  (* D + R + (e^{lR}-1)(D + E(Tlost R)) = D + (e^{lR}-1)(D + 1/l). *)
  let rate = 1. /. 3600. and recovery = 600. and downtime = 60. in
  close ~tol:1e-8 "algebraic identity"
    (downtime +. ((exp (rate *. recovery) -. 1.) *. (downtime +. (1. /. rate))))
    (Theory.expected_trec ~rate ~recovery ~downtime)

let test_chunk_count_stationarity () =
  (* K0 zeroes psi' (checked by a symmetric difference quotient). *)
  let rate = 1. /. 86400. and work = 20. *. 86400. and checkpoint = 600. in
  let k0 = Theory.chunk_count_real ~rate ~work ~checkpoint in
  let psi k = k *. (exp (rate *. ((work /. k) +. checkpoint)) -. 1.) in
  let h = 1e-4 in
  let derivative = (psi (k0 +. h) -. psi (k0 -. h)) /. (2. *. h) in
  close ~tol:1e-8 "psi'(K0) = 0" 0. derivative

let test_optimal_chunk_count_beats_neighbors () =
  List.iter
    (fun (mtbf, work) ->
      let rate = 1. /. mtbf in
      let k = Theory.optimal_chunk_count ~rate ~work ~checkpoint:600. in
      let v = Theory.psi ~rate ~work ~checkpoint:600. k in
      if k > 1 then
        check Alcotest.bool "better than k-1" true
          (v <= Theory.psi ~rate ~work ~checkpoint:600. (k - 1) +. 1e-9);
      check Alcotest.bool "better than k+1" true
        (v <= Theory.psi ~rate ~work ~checkpoint:600. (k + 1) +. 1e-9))
    [ (3600., 86400.); (86400., 1.728e6); (604800., 1.728e6); (3.9e9, 1e7) ]

let test_expected_makespan_brute_force () =
  (* The closed-form K* must minimize the expected makespan over an
     exhaustive scan of chunk counts. *)
  let rate = 1. /. 86400. and work = 20. *. 86400. in
  let f k =
    Theory.expected_makespan_for_count ~rate ~work ~checkpoint:600. ~recovery:600. ~downtime:60. k
  in
  let best = ref 1 in
  for k = 1 to 600 do
    if f k < f !best then best := k
  done;
  check Alcotest.int "brute force agrees"
    !best
    (Theory.optimal_chunk_count ~rate ~work ~checkpoint:600.)

let test_optimal_at_most_single_chunk () =
  let rate = 1. /. 3600. and work = 86400. in
  check Alcotest.bool "optimal <= naive" true
    (Theory.optimal_expected_makespan ~rate ~work ~checkpoint:600. ~recovery:600. ~downtime:60.
    <= Theory.expected_makespan_single_chunk ~rate ~work ~checkpoint:600. ~recovery:600.
         ~downtime:60.)

let test_optimal_period_near_young () =
  (* For small lambda C the optimum converges to Young's sqrt(2 C / l). *)
  let rate = 1. /. 3.9e9 and checkpoint = 600. in
  let work = 1e9 in
  let period = Theory.optimal_period ~rate ~work ~checkpoint in
  let young = sqrt (2. *. checkpoint /. rate) in
  check Alcotest.bool
    (Printf.sprintf "period %.0f within 5%% of young %.0f" period young)
    true
    (abs_float (period -. young) /. young < 0.05)

let test_macro_rate () =
  close "p lambda" 0.5 (Theory.macro_rate ~rate:0.001 ~processors:500);
  Alcotest.check_raises "bad p" (Invalid_argument "Theory.macro_rate: processors must be positive")
    (fun () -> ignore (Theory.macro_rate ~rate:1. ~processors:0))

let test_parallel_consistency () =
  (* Proposition 5 is Theorem 1 on the macro-processor. *)
  let rate = 1. /. 3.9e9 and p = 1024 and work = 7e5 and checkpoint = 600. in
  check Alcotest.int "macro substitution"
    (Theory.optimal_chunk_count ~rate:(rate *. float_of_int p) ~work ~checkpoint)
    (Theory.parallel_optimal_chunk_count ~rate ~processors:p ~parallel_work:work ~checkpoint)

let test_theory_invalid () =
  Alcotest.check_raises "psi k=0" (Invalid_argument "Theory.psi: k must be positive") (fun () ->
      ignore (Theory.psi ~rate:1. ~work:1. ~checkpoint:1. 0));
  Alcotest.check_raises "negative work" (Invalid_argument "Theory: work must be positive")
    (fun () -> ignore (Theory.chunk_count_real ~rate:1. ~work:0. ~checkpoint:1.))

(* -- Dp_context --------------------------------------------------------------- *)

let exp_context =
  Dp_context.create ~dist:(Exponential.of_mtbf ~mtbf:86400.) ~checkpoint:600. ~recovery:600.
    ~downtime:60.

let test_context_trec_matches_theory () =
  close ~tol:1e-6 "E(Trec)"
    (Theory.expected_trec ~rate:(1. /. 86400.) ~recovery:600. ~downtime:60.)
    (Dp_context.expected_trec exp_context)

let test_context_psuc () =
  close ~tol:1e-12 "delegates to the distribution" (exp (-.1200. /. 86400.))
    (Dp_context.psuc exp_context ~age:0. ~duration:1200.)

let test_context_invalid () =
  Alcotest.check_raises "negative downtime"
    (Invalid_argument "Dp_context.create: negative downtime") (fun () ->
      ignore
        (Dp_context.create ~dist:(Exponential.create ~rate:1.) ~checkpoint:1. ~recovery:1.
           ~downtime:(-1.)))

(* -- Age_summary --------------------------------------------------------------- *)

let weibull_dist = Weibull.of_mtbf ~mtbf:1e6 ~shape:0.7

let random_ages n =
  let rng = Ckpt_prng.Rng.create ~seed:17L in
  Array.init n (fun _ -> Ckpt_prng.Rng.uniform rng *. 3e6)

let test_age_summary_exact_psuc () =
  (* Against the direct product over ages. *)
  let ages = [| 100.; 5000.; 2e5 |] in
  let s = Age_summary.exact_of_ages ages in
  let direct =
    Array.fold_left
      (fun acc tau -> acc *. D.conditional_survival weibull_dist ~age:tau ~duration:4e4)
      1. ages
  in
  close ~tol:1e-12 "product of conditionals" direct
    (Age_summary.psuc weibull_dist s ~elapsed:0. ~duration:4e4)

let test_age_summary_elapsed_shift () =
  let ages = [| 100.; 5000.; 2e5 |] in
  let s = Age_summary.exact_of_ages ages in
  let shifted = Age_summary.exact_of_ages (Array.map (fun a -> a +. 7e3) ages) in
  close ~tol:1e-12 "elapsed = shifting every age"
    (Age_summary.psuc weibull_dist shifted ~elapsed:0. ~duration:4e4)
    (Age_summary.psuc weibull_dist s ~elapsed:7e3 ~duration:4e4)

let test_age_summary_small_platform_lossless () =
  let ages = random_ages 8 in
  let s =
    Age_summary.build ~nexact:10 ~napprox:100 weibull_dist ~processors:8
      ~iter_ages:(fun f -> Array.iter f ages)
  in
  check Alcotest.int "all exact" 8 (Array.length s.Age_summary.exact);
  check Alcotest.int "processors preserved" 8 (Age_summary.processors s)

let test_age_summary_approximation_accuracy () =
  (* Section 3.3: relative error below 0.2% for chunks up to the
     platform MTBF. *)
  let n = 4096 in
  let ages = random_ages n in
  let exact = Age_summary.exact_of_ages ages in
  let approx =
    Age_summary.build weibull_dist ~processors:n ~iter_ages:(fun f -> Array.iter f ages)
  in
  check Alcotest.int "processors preserved" n (Age_summary.processors approx);
  let platform_mtbf = 1e6 /. float_of_int n in
  List.iter
    (fun i ->
      let chunk = platform_mtbf /. (2. ** float_of_int i) in
      let pe = Age_summary.psuc weibull_dist exact ~elapsed:0. ~duration:chunk in
      let pa = Age_summary.psuc weibull_dist approx ~elapsed:0. ~duration:chunk in
      let err = abs_float (pa -. pe) /. pe in
      check Alcotest.bool (Printf.sprintf "error %.2e at chunk 2^-%d MTBF" err i) true
        (err < 2e-3))
    [ 0; 2; 4; 6 ]

let test_age_summary_incremental () =
  (* A fixed failure history, mirrored in a plain age vector: the
     incremental structure must reproduce [build] exactly. *)
  let births = [| 0.; 0.; 2e5; 5e5; 0.; 9e5 |] in
  let inc = Age_summary.Incremental.create ~births in
  check Alcotest.int "units" 6 (Age_summary.Incremental.units inc);
  let mirror = Array.copy births in
  let fail proc ~date ~downtime =
    Age_summary.Incremental.update inc ~old_birth:mirror.(proc) ~new_birth:(date +. downtime);
    mirror.(proc) <- date +. downtime
  in
  fail 2 ~date:1.1e6 ~downtime:60.;
  fail 0 ~date:1.3e6 ~downtime:60.;
  fail 2 ~date:1.35e6 ~downtime:60.;
  let now = 1.5e6 in
  let ages = Array.map (fun b -> Float.max 0. (now -. b)) mirror in
  let expected =
    Age_summary.build ~nexact:2 ~napprox:3 weibull_dist ~processors:6
      ~iter_ages:(fun f -> Array.iter f ages)
  in
  let got = Age_summary.Incremental.summarize ~nexact:2 ~napprox:3 inc weibull_dist ~now in
  check Alcotest.bool "summarize == build" true (got = expected);
  Alcotest.check_raises "unknown birth"
    (Invalid_argument "Age_summary.Incremental.update: unknown birth instant") (fun () ->
      Age_summary.Incremental.update inc ~old_birth:123.456 ~new_birth:1e6)

let test_age_summary_errors () =
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Age_summary.build: iter_ages count mismatch") (fun () ->
      ignore
        (Age_summary.build weibull_dist ~processors:100 ~iter_ages:(fun f -> f 1.)));
  Alcotest.check_raises "napprox too small"
    (Invalid_argument "Age_summary.build: napprox must be at least 2") (fun () ->
      ignore
        (Age_summary.build ~napprox:1 weibull_dist ~processors:100 ~iter_ages:(fun f ->
             for _ = 1 to 100 do
               f 1.
             done)))

(* -- Dp_next_failure -------------------------------------------------------------- *)

let test_dpnf_expected_work_manual () =
  (* Two chunks on a fresh exponential processor, by hand. *)
  let dist = Exponential.create ~rate:1e-4 in
  let ctx = Dp_context.create ~dist ~checkpoint:100. ~recovery:100. ~downtime:0. in
  let ages = Age_summary.exact_of_ages [| 0. |] in
  let p1 = exp (-1e-4 *. 600.) in
  let p2 = exp (-1e-4 *. 1100.) in
  close ~tol:1e-12 "closed form"
    ((p1 *. 500.) +. (p1 *. p2 *. 1000.))
    (Dp_next_failure.expected_work_of_chunks ~context:ctx ~ages [ 500.; 1000. ])

let brute_force_best ~context ~ages ~quanta ~quantum =
  (* Enumerate every composition of [quanta] and keep the best
     objective value. *)
  let rec compositions n =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun first -> List.map (fun rest -> first :: rest) (compositions (n - first)))
        (List.init n (fun i -> i + 1))
  in
  List.fold_left
    (fun best comp ->
      let chunks = List.map (fun i -> float_of_int i *. quantum) comp in
      Float.max best (Dp_next_failure.expected_work_of_chunks ~context ~ages chunks))
    neg_infinity (compositions quanta)

let test_dpnf_optimal_vs_brute_force () =
  (* Small instance with the checkpoint a multiple of the quantum so
     the DP's grid is exact; the DP must match exhaustive search. *)
  List.iter
    (fun dist ->
      let ctx = Dp_context.create ~dist ~checkpoint:1000. ~recovery:1000. ~downtime:0. in
      let ages = Age_summary.exact_of_ages [| 50.; 800. |] in
      (* Six quanta of 1000 s with C = 1000 s = one quantum: the DP
         grid is exact, so the DP must match exhaustive search over
         all 32 compositions. *)
      let plan =
        Dp_next_failure.solve ~max_states:6 ~truncation_factor:0. ~context:ctx ~ages ~work:6000.
          ()
      in
      close ~tol:1e-9 "quantum" 1000. plan.Dp_next_failure.quantum;
      let best = brute_force_best ~context:ctx ~ages ~quanta:6 ~quantum:1000. in
      close ~tol:1e-9 "DP matches brute force" best
        (Dp_next_failure.expected_work_of_chunks ~context:ctx ~ages plan.Dp_next_failure.chunks);
      (* The DP's own value estimate interpolates the platform
         log-survival, so it only approximates the exact objective. *)
      close ~tol:(best /. 500.) "DP objective near brute force" best
        plan.Dp_next_failure.expected_work)
    [ Exponential.create ~rate:1e-4; Weibull.of_mtbf ~mtbf:1e4 ~shape:0.7 ]

let test_dpnf_plan_consistency () =
  let ctx = Dp_context.create ~dist:weibull_dist ~checkpoint:600. ~recovery:600. ~downtime:60. in
  let ages = Age_summary.exact_of_ages (random_ages 16) in
  let plan = Dp_next_failure.solve ~context:ctx ~ages ~work:5e5 () in
  (* Chunks tile the planned work exactly. *)
  let total = List.fold_left ( +. ) 0. plan.Dp_next_failure.chunks in
  let planned = if plan.Dp_next_failure.truncated then 2. *. (1e6 /. 16.) else 5e5 in
  close ~tol:1e-6 "chunks tile the planned work" planned total;
  (* The DP's claimed objective matches re-evaluating its own plan
     (the grid quantizes C, so allow a small gap). *)
  let replayed =
    Dp_next_failure.expected_work_of_chunks ~context:ctx ~ages plan.Dp_next_failure.chunks
  in
  check Alcotest.bool "objective consistent" true
    (abs_float (replayed -. plan.Dp_next_failure.expected_work) /. replayed < 0.02)

let test_dpnf_truncation () =
  let ctx = Dp_context.create ~dist:weibull_dist ~checkpoint:600. ~recovery:600. ~downtime:60. in
  let ages = Age_summary.exact_of_ages (random_ages 64) in
  (* Platform MTBF = 1e6/64 ~ 15625; work far larger triggers truncation. *)
  let plan = Dp_next_failure.solve ~context:ctx ~ages ~work:1e7 () in
  check Alcotest.bool "truncated" true plan.Dp_next_failure.truncated;
  close ~tol:1. "valid work is half the planned work" (15625. )
    plan.Dp_next_failure.valid_work;
  let untruncated = Dp_next_failure.solve ~truncation_factor:0. ~context:ctx ~ages ~work:5e4 () in
  check Alcotest.bool "not truncated" false untruncated.Dp_next_failure.truncated

let test_dpnf_invalid () =
  let ctx = exp_context in
  let ages = Age_summary.exact_of_ages [| 0. |] in
  Alcotest.check_raises "zero work" (Invalid_argument "Dp_next_failure.solve: work must be positive")
    (fun () -> ignore (Dp_next_failure.solve ~context:ctx ~ages ~work:0. ()))

(* -- Dp_makespan --------------------------------------------------------------------- *)

let test_dpm_optimal_vs_brute_force_exponential () =
  (* For memoryless failures the expected makespan of any chunk
     multiset has the closed form
     sum_i (1/lambda + E(Trec)) (e^(lambda (w_i + C)) - 1); the DP
     restricted to a 6-quantum grid must match the best composition. *)
  let rate = 1e-4 in
  let ctx =
    Dp_context.create ~dist:(Exponential.create ~rate) ~checkpoint:1000. ~recovery:1000.
      ~downtime:100.
  in
  let quantum = 1500. in
  let quanta = 6 in
  let work = quantum *. float_of_int quanta in
  let trec = Theory.expected_trec ~rate ~recovery:1000. ~downtime:100. in
  let cost_of_chunks chunks =
    List.fold_left
      (fun acc w -> acc +. (((1. /. rate) +. trec) *. (exp (rate *. (w +. 1000.)) -. 1.)))
      0. chunks
  in
  let rec compositions n =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun first -> List.map (fun rest -> first :: rest) (compositions (n - first)))
        (List.init n (fun i -> i + 1))
  in
  let best =
    List.fold_left
      (fun acc comp ->
        Float.min acc (cost_of_chunks (List.map (fun i -> float_of_int i *. quantum) comp)))
      infinity (compositions quanta)
  in
  let t = Dp_makespan.solve ~quantum ~context:ctx ~work ~initial_age:0. () in
  close ~tol:(best /. 1e7) "DP equals exhaustive search" best (Dp_makespan.expected_makespan t)

let test_dpm_matches_theory_exponential () =
  (* For Exponential failures the DP should land within a few percent
     of Theorem 1's optimum. *)
  let work = 20. *. 86400. in
  let t = Dp_makespan.solve ~context:exp_context ~work ~initial_age:0. () in
  let dp = Dp_makespan.expected_makespan t in
  let opt =
    Theory.optimal_expected_makespan ~rate:(1. /. 86400.) ~work ~checkpoint:600. ~recovery:600.
      ~downtime:60.
  in
  check Alcotest.bool
    (Printf.sprintf "DP %.4g within 2%% of theory %.4g" dp opt)
    true
    (abs_float (dp -. opt) /. opt < 0.02);
  check Alcotest.bool "never better than the true optimum minus quantization slack" true
    (dp > opt *. 0.98)

let test_dpm_cursor_walk () =
  let work = 20. *. 86400. in
  let t = Dp_makespan.solve ~context:exp_context ~work ~initial_age:0. () in
  (* Following successes only, the chunks tile the work exactly. *)
  let rec walk c acc steps =
    if steps > 10_000 then Alcotest.fail "cursor does not terminate";
    let chunk = Dp_makespan.next_chunk c in
    if chunk = 0. then acc else walk (Dp_makespan.advance_success c) (acc +. chunk) (steps + 1)
  in
  close ~tol:1e-6 "chunks tile the work" work (walk (Dp_makespan.start t) 0. 0)

let test_dpm_failure_preserves_work () =
  let t = Dp_makespan.solve ~context:exp_context ~work:86400. ~initial_age:0. () in
  let c = Dp_makespan.start t in
  let c = Dp_makespan.advance_success c in
  let before = Dp_makespan.remaining_work c in
  let c = Dp_makespan.advance_failure c in
  close "failure keeps remaining work" before (Dp_makespan.remaining_work c);
  check Alcotest.bool "still prescribes a chunk" true (Dp_makespan.next_chunk c > 0.)

let test_dpm_lower_bound () =
  (* E(T) can never undercut the failure-free time of the same plan. *)
  let work = 86400. in
  let t = Dp_makespan.solve ~context:exp_context ~work ~initial_age:0. () in
  check Alcotest.bool "at least work + C" true
    (Dp_makespan.expected_makespan t >= work +. 600.)

let test_dpm_weibull_age_sensitivity () =
  (* With decreasing hazard, a freshly-recovered platform (small age)
     faces more risk: its first chunk should not exceed the one
     prescribed at an old age. *)
  let ctx =
    Dp_context.create ~dist:(Weibull.of_mtbf ~mtbf:86400. ~shape:0.5) ~checkpoint:600.
      ~recovery:600. ~downtime:60.
  in
  let young_t = Dp_makespan.solve ~context:ctx ~work:86400. ~initial_age:60. () in
  let old_t = Dp_makespan.solve ~context:ctx ~work:86400. ~initial_age:(30. *. 86400.) () in
  check Alcotest.bool "older age allows no smaller first chunk" true
    (Dp_makespan.next_chunk (Dp_makespan.start old_t)
    >= Dp_makespan.next_chunk (Dp_makespan.start young_t) -. 1e-9)

let test_dpm_explicit_quantum () =
  let t =
    Dp_makespan.solve ~quantum:7200. ~context:exp_context ~work:86400. ~initial_age:0. ()
  in
  close ~tol:1e-9 "quantum respected" 7200. (Dp_makespan.quantum t)

let test_dpm_invalid () =
  Alcotest.check_raises "zero work" (Invalid_argument "Dp_makespan.solve: work must be positive")
    (fun () -> ignore (Dp_makespan.solve ~context:exp_context ~work:0. ~initial_age:0. ()))

let test_dpm_pack_boundary () =
  (* A checkpoint worth 3e6 quanta drives the makespan coordinate of
     the packed state beyond 2^24 — the zone the previous 24-bit field
     corrupted silently.  The widened layout must still solve it: the
     makespan is finite, at least the mandatory checkpoint costs, and
     the cursor tiles the work. *)
  let ctx =
    Dp_context.create ~dist:(Exponential.of_mtbf ~mtbf:1e9) ~checkpoint:3e6 ~recovery:1.
      ~downtime:0.
  in
  let t = Dp_makespan.solve ~quantum:1. ~context:ctx ~work:8. ~initial_age:0. () in
  let m = Dp_makespan.expected_makespan t in
  check Alcotest.bool "finite makespan" true (Float.is_finite m);
  check Alcotest.bool "pays at least one checkpoint" true (m >= 3e6);
  let rec walk c acc steps =
    if steps > 100 then Alcotest.fail "cursor does not terminate";
    let chunk = Dp_makespan.next_chunk c in
    if chunk = 0. then acc else walk (Dp_makespan.advance_success c) (acc +. chunk) (steps + 1)
  in
  close ~tol:1e-9 "chunks tile the work" 8. (walk (Dp_makespan.start t) 0. 0)

let test_dpm_pack_overflow_rejected () =
  (* Instances whose makespan coordinate cannot fit the 31-bit field
     must be rejected up front, never solved with corrupted keys. *)
  let ctx =
    Dp_context.create ~dist:(Exponential.of_mtbf ~mtbf:1e9) ~checkpoint:3e8 ~recovery:1.
      ~downtime:0.
  in
  Alcotest.check_raises "ratio overflow"
    (Invalid_argument "Dp_makespan.solve: checkpoint/quantum ratio overflows the packed state layout")
    (fun () -> ignore (Dp_makespan.solve ~quantum:1. ~context:ctx ~work:16. ~initial_age:0. ()))

(* -- properties ------------------------------------------------------------------ *)

let prop_optimal_count_weakly_increasing_in_work =
  QCheck2.Test.make ~name:"K* weakly increases with work" ~count:200
    QCheck2.Gen.(triple (float_range 1e3 1e7) (float_range 1e3 1e7) (float_range 1e-7 1e-3))
    (fun (w1, w2, rate) ->
      let lo = Float.min w1 w2 and hi = Float.max w1 w2 in
      Theory.optimal_chunk_count ~rate ~work:lo ~checkpoint:600.
      <= Theory.optimal_chunk_count ~rate ~work:hi ~checkpoint:600.)

let prop_optimal_count_decreasing_in_checkpoint =
  QCheck2.Test.make ~name:"K* weakly decreases with checkpoint cost" ~count:200
    QCheck2.Gen.(pair (float_range 10. 5000.) (float_range 10. 5000.))
    (fun (c1, c2) ->
      let lo = Float.min c1 c2 and hi = Float.max c1 c2 in
      let rate = 1. /. 86400. and work = 1e6 in
      Theory.optimal_chunk_count ~rate ~work ~checkpoint:hi
      <= Theory.optimal_chunk_count ~rate ~work ~checkpoint:lo)

let prop_dpnf_expected_work_bounded =
  QCheck2.Test.make ~name:"E(W) lies in [0, planned work]" ~count:60
    QCheck2.Gen.(pair (float_range 1e3 1e6) (float_range 0.3 1.5))
    (fun (work, shape) ->
      let dist = Weibull.of_mtbf ~mtbf:5e4 ~shape in
      let ctx = Dp_context.create ~dist ~checkpoint:600. ~recovery:600. ~downtime:60. in
      let ages = Age_summary.exact_of_ages [| 100.; 4e4; 9e4 |] in
      let plan = Dp_next_failure.solve ~max_states:48 ~context:ctx ~ages ~work () in
      let planned = List.fold_left ( +. ) 0. plan.Dp_next_failure.chunks in
      plan.Dp_next_failure.expected_work >= 0.
      && plan.Dp_next_failure.expected_work <= planned +. 1e-6)

let prop_age_summary_psuc_in_unit =
  QCheck2.Test.make ~name:"summarized Psuc stays a probability" ~count:100
    QCheck2.Gen.(pair (int_range 12 300) (float_range 1. 1e6))
    (fun (n, duration) ->
      let rng = Ckpt_prng.Rng.create ~seed:(Int64.of_int n) in
      let ages = Array.init n (fun _ -> Ckpt_prng.Rng.uniform rng *. 3e6) in
      let s =
        Age_summary.build weibull_dist ~processors:n ~iter_ages:(fun f -> Array.iter f ages)
      in
      let p = Age_summary.psuc weibull_dist s ~elapsed:0. ~duration in
      p >= 0. && p <= 1. +. 1e-12)

let prop_dpnf_pruned_equals_unpruned =
  (* The monotone divide-and-conquer prune only narrows which
     candidates each cell scans; the plan and its value must be
     bit-identical to the exhaustive scan, for memoryless and
     decreasing-hazard distributions alike. *)
  QCheck2.Test.make ~name:"pruned DPNF solve is bit-identical to unpruned" ~count:40
    QCheck2.Gen.(triple (int_range 1 64) (float_range 0.1 4.) (float_range 0.4 1.2))
    (fun (procs, work_factor, shape) ->
      let rng = Ckpt_prng.Rng.create ~seed:(Int64.of_int ((procs * 7919) + int_of_float (shape *. 1e3))) in
      let ages = Array.init procs (fun _ -> Ckpt_prng.Rng.uniform rng *. 3e6) in
      let work = work_factor *. 1e6 /. float_of_int procs in
      List.for_all
        (fun dist ->
          let ctx = Dp_context.create ~dist ~checkpoint:600. ~recovery:600. ~downtime:60. in
          let summary =
            Age_summary.build dist ~processors:procs ~iter_ages:(fun f -> Array.iter f ages)
          in
          let solve prune =
            Dp_next_failure.solve ~max_states:60 ~prune ~context:ctx ~ages:summary ~work ()
          in
          let pruned = solve true and plain = solve false in
          pruned.Dp_next_failure.chunks = plain.Dp_next_failure.chunks
          && pruned.Dp_next_failure.expected_work = plain.Dp_next_failure.expected_work
          && pruned.Dp_next_failure.valid_work = plain.Dp_next_failure.valid_work)
        [ Exponential.of_mtbf ~mtbf:1e6; Weibull.of_mtbf ~mtbf:1e6 ~shape ])

let prop_incremental_summary_matches_build =
  (* After an arbitrary failure sequence the incremental structure's
     summary equals a from-scratch [build] over the mirrored age
     vector, structurally (same floats, same counts).  A quarter of
     the births are tied at zero to exercise the tie rule at the
     exact/approximate threshold. *)
  QCheck2.Test.make ~name:"incremental summary == build after failures" ~count:80
    QCheck2.Gen.(
      pair
        (triple (int_range 1 400) (int_range 0 30) (int_range 0 10_000))
        (pair (int_range 0 12) (int_range 2 40)))
    (fun ((units, failures, seed), (nexact, napprox)) ->
      let rng = Ckpt_prng.Rng.create ~seed:(Int64.of_int seed) in
      let births =
        Array.init units (fun _ ->
            if Ckpt_prng.Rng.uniform rng < 0.25 then 0. else Ckpt_prng.Rng.uniform rng *. 1e6)
      in
      let inc = Age_summary.Incremental.create ~births in
      let mirror = Array.copy births in
      let now = ref 1e6 in
      for _ = 1 to failures do
        let proc =
          min (units - 1) (int_of_float (Ckpt_prng.Rng.uniform rng *. float_of_int units))
        in
        now := !now +. (Ckpt_prng.Rng.uniform rng *. 1e5);
        let new_birth = !now +. 60. in
        Age_summary.Incremental.update inc ~old_birth:mirror.(proc) ~new_birth;
        mirror.(proc) <- new_birth
      done;
      now := !now +. 1e4;
      let ages = Array.map (fun b -> Float.max 0. (!now -. b)) mirror in
      let expected =
        Age_summary.build ~nexact ~napprox weibull_dist ~processors:units
          ~iter_ages:(fun f -> Array.iter f ages)
      in
      Age_summary.Incremental.summarize ~nexact ~napprox inc weibull_dist ~now:!now = expected)

let core_qcheck =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_optimal_count_weakly_increasing_in_work;
      prop_optimal_count_decreasing_in_checkpoint;
      prop_dpnf_expected_work_bounded;
      prop_age_summary_psuc_in_unit;
      prop_dpnf_pruned_equals_unpruned;
      prop_incremental_summary_matches_build;
    ]

(* -- Waste (first-order analysis) --------------------------------------------- *)

module Waste = Ckpt_core.Waste

let test_waste_optimum_is_young () =
  close ~tol:1e-9 "sqrt(2CM)" (sqrt (2. *. 600. *. 86400.))
    (Waste.optimal_period ~checkpoint:600. ~platform_mtbf:86400.)

let test_waste_minimized_at_optimum () =
  let m = 86400. and c = 600. in
  let opt = Waste.optimal_period ~checkpoint:c ~platform_mtbf:m in
  let w = Waste.waste_fraction ~period:opt ~checkpoint:c ~platform_mtbf:m in
  List.iter
    (fun f ->
      check Alcotest.bool
        (Printf.sprintf "no better at %g x" f)
        true
        (Waste.waste_fraction ~period:(opt *. f) ~checkpoint:c ~platform_mtbf:m >= w -. 1e-4))
    [ 0.3; 0.5; 2.; 3. ]

let test_waste_predicts_simulated_overhead () =
  (* Theorem 1's exact expected makespan and the first-order
     prediction should agree within a few percent in the small-waste
     regime. *)
  let rate = 1. /. 86400. and work = 20. *. 86400. in
  let exact =
    Theory.optimal_expected_makespan ~rate ~work ~checkpoint:600. ~recovery:600. ~downtime:60.
  in
  let approx = Waste.expected_makespan ~work ~checkpoint:600. ~platform_mtbf:86400. in
  check Alcotest.bool
    (Printf.sprintf "first order %.4g vs exact %.4g" approx exact)
    true
    (abs_float (approx -. exact) /. exact < 0.03)

let test_waste_processor_limit () =
  (* 125 years / (2 * 600 s) = 3,287,250 processors. *)
  check Alcotest.int "mu / 2C" 3_287_250
    (Waste.usable_processor_limit ~checkpoint:600.
       ~processor_mtbf:(125. *. 365.25 *. 86400.));
  check Alcotest.int "at least one" 1
    (Waste.usable_processor_limit ~checkpoint:600. ~processor_mtbf:60.)

let test_waste_invalid () =
  Alcotest.check_raises "bad mtbf" (Invalid_argument "Waste: platform_mtbf must be positive")
    (fun () -> ignore (Waste.optimal_period ~checkpoint:1. ~platform_mtbf:0.))

let () =
  Alcotest.run "core"
    [
      ( "theory",
        [
          Alcotest.test_case "tlost limits" `Quick test_tlost_limits;
          Alcotest.test_case "trec simplification" `Quick test_trec_simplification;
          Alcotest.test_case "K0 stationarity" `Quick test_chunk_count_stationarity;
          Alcotest.test_case "K* beats neighbors" `Quick test_optimal_chunk_count_beats_neighbors;
          Alcotest.test_case "brute-force K*" `Quick test_expected_makespan_brute_force;
          Alcotest.test_case "optimal <= single chunk" `Quick test_optimal_at_most_single_chunk;
          Alcotest.test_case "converges to Young" `Quick test_optimal_period_near_young;
          Alcotest.test_case "macro rate" `Quick test_macro_rate;
          Alcotest.test_case "Proposition 5 = macro Theorem 1" `Quick test_parallel_consistency;
          Alcotest.test_case "invalid args" `Quick test_theory_invalid;
        ] );
      ( "dp_context",
        [
          Alcotest.test_case "trec matches theory" `Quick test_context_trec_matches_theory;
          Alcotest.test_case "psuc" `Quick test_context_psuc;
          Alcotest.test_case "invalid args" `Quick test_context_invalid;
        ] );
      ( "age_summary",
        [
          Alcotest.test_case "exact psuc" `Quick test_age_summary_exact_psuc;
          Alcotest.test_case "elapsed shift" `Quick test_age_summary_elapsed_shift;
          Alcotest.test_case "small platform lossless" `Quick test_age_summary_small_platform_lossless;
          Alcotest.test_case "Section 3.3 accuracy" `Quick test_age_summary_approximation_accuracy;
          Alcotest.test_case "incremental matches build" `Quick test_age_summary_incremental;
          Alcotest.test_case "errors" `Quick test_age_summary_errors;
        ] );
      ( "dp_next_failure",
        [
          Alcotest.test_case "objective closed form" `Quick test_dpnf_expected_work_manual;
          Alcotest.test_case "optimal vs brute force" `Quick test_dpnf_optimal_vs_brute_force;
          Alcotest.test_case "plan consistency" `Quick test_dpnf_plan_consistency;
          Alcotest.test_case "truncation" `Quick test_dpnf_truncation;
          Alcotest.test_case "invalid args" `Quick test_dpnf_invalid;
        ] );
      ( "waste",
        [
          Alcotest.test_case "optimum is Young" `Quick test_waste_optimum_is_young;
          Alcotest.test_case "minimized at optimum" `Quick test_waste_minimized_at_optimum;
          Alcotest.test_case "predicts Theorem 1" `Quick test_waste_predicts_simulated_overhead;
          Alcotest.test_case "processor limit" `Quick test_waste_processor_limit;
          Alcotest.test_case "invalid" `Quick test_waste_invalid;
        ] );
      ( "dp_makespan",
        [
          Alcotest.test_case "optimal vs brute force" `Quick
            test_dpm_optimal_vs_brute_force_exponential;
          Alcotest.test_case "matches Theorem 1" `Quick test_dpm_matches_theory_exponential;
          Alcotest.test_case "cursor tiles the work" `Quick test_dpm_cursor_walk;
          Alcotest.test_case "failure preserves work" `Quick test_dpm_failure_preserves_work;
          Alcotest.test_case "lower bound" `Quick test_dpm_lower_bound;
          Alcotest.test_case "weibull age sensitivity" `Quick test_dpm_weibull_age_sensitivity;
          Alcotest.test_case "explicit quantum" `Quick test_dpm_explicit_quantum;
          Alcotest.test_case "pack boundary (y > 2^24)" `Quick test_dpm_pack_boundary;
          Alcotest.test_case "pack overflow rejected" `Quick test_dpm_pack_overflow_rejected;
          Alcotest.test_case "invalid args" `Quick test_dpm_invalid;
        ] );
      ("properties", core_qcheck);
    ]
