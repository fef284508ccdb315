(* Unit and property tests for the failure substrate. *)

module Trace = Ckpt_failures.Trace
module Trace_set = Ckpt_failures.Trace_set
module Rejuvenation = Ckpt_failures.Rejuvenation
module Failure_log = Ckpt_failures.Failure_log
module Lanl_synth = Ckpt_failures.Lanl_synth
module D = Ckpt_distributions.Distribution
module Exponential = Ckpt_distributions.Exponential
module Weibull = Ckpt_distributions.Weibull
module Rng = Ckpt_prng.Rng
module Units = Ckpt_platform.Units

let check = Alcotest.check
let close ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

(* -- trace -------------------------------------------------------------------- *)

let test_trace_generate_sorted_in_range () =
  let rng = Rng.create ~seed:1L in
  let dist = Exponential.of_mtbf ~mtbf:100. in
  let tr = Trace.generate rng dist ~horizon:10_000. in
  let times = tr.Trace.failure_times in
  check Alcotest.bool "some failures" true (Array.length times > 10);
  Array.iteri
    (fun i t ->
      check Alcotest.bool "in range" true (t >= 0. && t < 10_000.);
      if i > 0 then check Alcotest.bool "strictly increasing" true (t > times.(i - 1)))
    times

let test_trace_expected_count () =
  (* Renewal process with mean 100 over horizon 1e5: about 1000. *)
  let rng = Rng.create ~seed:2L in
  let dist = Exponential.of_mtbf ~mtbf:100. in
  let tr = Trace.generate rng dist ~horizon:1e5 in
  let n = Trace.count tr in
  check Alcotest.bool (Printf.sprintf "count %d ~ 1000" n) true (n > 850 && n < 1150)

let test_trace_of_times_validation () =
  Alcotest.check_raises "unsorted" (Invalid_argument "Trace.of_times: dates must be strictly increasing")
    (fun () -> ignore (Trace.of_times ~horizon:10. [| 3.; 2. |]));
  Alcotest.check_raises "out of range" (Invalid_argument "Trace.of_times: date outside [0, horizon)")
    (fun () -> ignore (Trace.of_times ~horizon:10. [| 11. |]))

let test_trace_queries () =
  let tr = Trace.of_times ~horizon:100. [| 10.; 20.; 50. |] in
  check (Alcotest.option (Alcotest.float 0.)) "next at 0" (Some 10.)
    (Trace.next_failure_at_or_after tr 0.);
  check (Alcotest.option (Alcotest.float 0.)) "next at exactly 20" (Some 20.)
    (Trace.next_failure_at_or_after tr 20.);
  check (Alcotest.option (Alcotest.float 0.)) "next past the end" None
    (Trace.next_failure_at_or_after tr 50.1);
  check (Alcotest.option (Alcotest.float 0.)) "last before 10" None
    (Trace.last_failure_before tr 10.);
  check (Alcotest.option (Alcotest.float 0.)) "last before 21" (Some 20.)
    (Trace.last_failure_before tr 21.);
  check Alcotest.int "count in [10, 50)" 2 (Trace.count_in_window tr ~lo:10. ~hi:50.);
  check Alcotest.int "empty window" 0 (Trace.count_in_window tr ~lo:30. ~hi:30.)

let test_trace_empty () =
  let tr = Trace.empty ~horizon:10. in
  check Alcotest.int "no failures" 0 (Trace.count tr);
  check (Alcotest.option (Alcotest.float 0.)) "no next" None (Trace.next_failure_at_or_after tr 0.)

(* -- trace_set ------------------------------------------------------------------ *)

let dist100 = Exponential.of_mtbf ~mtbf:100.

let test_trace_set_prefix_coherence () =
  (* Generating 8 processors yields exactly the first 8 traces of a
     16-processor generation: the paper's coherence-when-varying-p rule. *)
  let small = Trace_set.generate ~seed:7L ~replicate:3 dist100 ~processors:8 ~horizon:1000. in
  let large = Trace_set.generate ~seed:7L ~replicate:3 dist100 ~processors:16 ~horizon:1000. in
  for i = 0 to 7 do
    check
      (Alcotest.array (Alcotest.float 0.))
      (Printf.sprintf "trace %d identical" i)
      (Trace_set.trace large i).Trace.failure_times
      (Trace_set.trace small i).Trace.failure_times
  done

let test_trace_set_replicates_differ () =
  let a = Trace_set.generate ~seed:7L ~replicate:0 dist100 ~processors:2 ~horizon:1000. in
  let b = Trace_set.generate ~seed:7L ~replicate:1 dist100 ~processors:2 ~horizon:1000. in
  check Alcotest.bool "different replicates differ" true
    ((Trace_set.trace a 0).Trace.failure_times <> (Trace_set.trace b 0).Trace.failure_times)

let test_trace_set_merged_sorted_complete () =
  let ts = Trace_set.generate ~seed:9L ~replicate:0 dist100 ~processors:5 ~horizon:2000. in
  let events = Trace_set.events ts in
  check Alcotest.int "every failure present" (Trace_set.total_failures ts) (Array.length events);
  Array.iteri
    (fun i (date, proc) ->
      check Alcotest.bool "proc in range" true (proc >= 0 && proc < 5);
      if i > 0 then check Alcotest.bool "sorted" true (fst events.(i - 1) <= date))
    events

let test_trace_set_next_event_index () =
  let traces = [| Trace.of_times ~horizon:100. [| 10.; 30. |]; Trace.of_times ~horizon:100. [| 20. |] |] in
  let ts = Trace_set.of_traces traces in
  check Alcotest.int "at 0" 0 (Trace_set.next_event_index ts ~after:0.);
  check Alcotest.int "at 15" 1 (Trace_set.next_event_index ts ~after:15.);
  check Alcotest.int "exactly 20" 1 (Trace_set.next_event_index ts ~after:20.);
  check Alcotest.int "past everything" 3 (Trace_set.next_event_index ts ~after:31.);
  check
    (Alcotest.option (Alcotest.pair (Alcotest.float 0.) Alcotest.int))
    "next failure" (Some (20., 1))
    (Trace_set.next_platform_failure ts ~after:12.)

(* -- rejuvenation (Figure 1) ------------------------------------------------------ *)

let test_rejuvenation_exponential_equal () =
  (* For memoryless failures, both options give D + mu/p. *)
  let dist = Exponential.of_mtbf ~mtbf:1000. in
  let a = Rejuvenation.platform_mtbf Rejuvenation.Rejuvenate_all dist ~processors:32 ~downtime:5. in
  let b =
    Rejuvenation.platform_mtbf Rejuvenation.Rejuvenate_failed_only dist ~processors:32 ~downtime:5.
  in
  close ~tol:0.5 "equal for exponential" a b;
  close ~tol:0.5 "D + mu/p" (5. +. (1000. /. 32.)) b

let test_rejuvenation_weibull_closed_form () =
  let mtbf = Units.of_years 125. and shape = 0.7 in
  let dist = Weibull.of_mtbf ~mtbf ~shape in
  List.iter
    (fun p ->
      let generic =
        Rejuvenation.platform_mtbf Rejuvenation.Rejuvenate_all dist ~processors:p ~downtime:60.
      in
      let closed =
        Rejuvenation.weibull_platform_mtbf_rejuvenate_all ~mtbf ~shape ~processors:p ~downtime:60.
      in
      close ~tol:(closed /. 1e4) (Printf.sprintf "p = %d" p) closed generic)
    [ 1; 16; 1024 ]

let test_rejuvenation_weibull_hurts () =
  (* Figure 1: for k < 1 rejuvenating everything lowers the MTBF. *)
  let series =
    Rejuvenation.figure1_series ~mtbf:(Units.of_years 125.) ~shape:0.7 ~downtime:60.
      ~processor_exponents:[ 4; 10; 16; 22 ]
  in
  List.iter
    (fun (p, with_r, without_r) ->
      check Alcotest.bool (Printf.sprintf "worse at p = %d" p) true (with_r < without_r))
    series

let test_rejuvenation_simulation_agrees () =
  let dist = Weibull.of_mtbf ~mtbf:1000. ~shape:0.7 in
  let analytic =
    Rejuvenation.platform_mtbf Rejuvenation.Rejuvenate_failed_only dist ~processors:16
      ~downtime:0.
  in
  let simulated =
    Rejuvenation.simulated_platform_mtbf Rejuvenation.Rejuvenate_failed_only dist ~processors:16
      ~downtime:0. ~seed:4L ~samples:4000
  in
  check Alcotest.bool
    (Printf.sprintf "simulated %.1f ~ analytic %.1f" simulated analytic)
    true
    (abs_float (simulated -. analytic) /. analytic < 0.1)

(* -- failure log -------------------------------------------------------------------- *)

let test_failure_log_parse () =
  let log = Failure_log.parse_string "# comment\nn1 100.5\nn2 300\n\nn1 50\n" in
  check Alcotest.int "records" 3 (Failure_log.count log);
  check Alcotest.int "nodes" 2 log.Failure_log.nodes;
  close ~tol:1e-9 "mean" ((100.5 +. 300. +. 50.) /. 3.) (Failure_log.mean_interval log)

let test_failure_log_parse_errors () =
  Alcotest.check_raises "bad duration" (Failure "Failure_log.parse_string: bad duration at line 1")
    (fun () -> ignore (Failure_log.parse_string "n1 abc"));
  Alcotest.check_raises "bad record" (Failure "Failure_log.parse_string: bad record at line 1")
    (fun () -> ignore (Failure_log.parse_string "onlyonefield"))

let test_failure_log_round_trip () =
  let log = Failure_log.of_intervals ~nodes:2 [| 10.; 20.; 30. |] in
  let path = Filename.temp_file "ckpt_log" ".txt" in
  Failure_log.save log ~node_of_interval:(fun i -> i mod 2) path;
  let log' = Failure_log.load path in
  Sys.remove path;
  check Alcotest.int "count preserved" 3 (Failure_log.count log');
  close ~tol:1e-3 "mean preserved" (Failure_log.mean_interval log) (Failure_log.mean_interval log')

let test_failure_log_distribution () =
  let log = Failure_log.of_intervals [| 10.; 20.; 30.; 40. |] in
  let d = Failure_log.to_distribution log in
  close ~tol:1e-9 "mean matches" 25. d.D.mean

(* -- synthetic LANL ------------------------------------------------------------------- *)

let test_lanl_deterministic () =
  let a = Lanl_synth.generate ~seed:1L Lanl_synth.cluster19_parameters in
  let b = Lanl_synth.generate ~seed:1L Lanl_synth.cluster19_parameters in
  check (Alcotest.array (Alcotest.float 0.)) "same log" a.Failure_log.intervals
    b.Failure_log.intervals;
  let c = Lanl_synth.generate ~seed:2L Lanl_synth.cluster19_parameters in
  check Alcotest.bool "different seed differs" true
    (a.Failure_log.intervals <> c.Failure_log.intervals)

let test_lanl_mean_calibration () =
  let p = Lanl_synth.cluster19_parameters in
  let log = Lanl_synth.generate p in
  let mean = Failure_log.mean_interval log in
  check Alcotest.bool
    (Printf.sprintf "mean %.3e within 15%% of %.3e" mean p.Lanl_synth.mean_interval)
    true
    (abs_float (mean -. p.Lanl_synth.mean_interval) /. p.Lanl_synth.mean_interval < 0.15)

let test_lanl_structure () =
  let p = Lanl_synth.cluster19_parameters in
  let log = Lanl_synth.generate p in
  check Alcotest.int "interval count" (p.Lanl_synth.nodes * p.Lanl_synth.intervals_per_node)
    (Failure_log.count log);
  check Alcotest.int "node count" p.Lanl_synth.nodes log.Failure_log.nodes;
  (* The reboot-storm mode leaves a visible mass of short uptimes. *)
  let short =
    Array.fold_left (fun acc d -> if d < 6. *. 3600. then acc + 1 else acc) 0
      log.Failure_log.intervals
  in
  let frac = float_of_int short /. float_of_int (Failure_log.count log) in
  check Alcotest.bool (Printf.sprintf "short-uptime mass %.3f" frac) true (frac > 0.05)

let test_lanl_invalid () =
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Lanl_synth.generate: short_uptime_fraction outside [0, 1)") (fun () ->
      ignore
        (Lanl_synth.generate { Lanl_synth.cluster19_parameters with short_uptime_fraction = 1. }))

(* -- trace statistics -------------------------------------------------------------- *)

module Trace_stats = Ckpt_failures.Trace_stats

let test_stats_hand_built () =
  let ts =
    Trace_set.of_traces
      [| Trace.of_times ~horizon:100. [| 10.; 30. |]; Trace.of_times ~horizon:100. [||] |]
  in
  let s = Trace_stats.measure ts in
  check Alcotest.int "failures" 2 s.Trace_stats.total_failures;
  close "unit mtbf" 100. s.Trace_stats.empirical_unit_mtbf;
  close "platform mtbf" 50. s.Trace_stats.empirical_platform_mtbf;
  close "gap mean" 15. s.Trace_stats.interarrival_mean;
  check Alcotest.int "idle units" 1 s.Trace_stats.idle_units;
  check Alcotest.int "busiest" 2 s.Trace_stats.max_failures_on_one_unit

let test_stats_recovers_generator_mtbf () =
  let ts = Trace_set.generate ~seed:21L ~replicate:0 dist100 ~processors:64 ~horizon:10_000. in
  let s = Trace_stats.measure ts in
  check Alcotest.bool
    (Printf.sprintf "unit MTBF %.1f ~ 100" s.Trace_stats.empirical_unit_mtbf)
    true
    (abs_float (s.Trace_stats.empirical_unit_mtbf -. 100.) < 10.)

let test_stats_cv_distinguishes_burstiness () =
  let expo = Trace_set.generate ~seed:3L ~replicate:0 dist100 ~processors:64 ~horizon:10_000. in
  let weib =
    Trace_set.generate ~seed:3L ~replicate:0
      (Weibull.of_mtbf ~mtbf:100. ~shape:0.5)
      ~processors:64 ~horizon:10_000.
  in
  let cv_expo = (Trace_stats.measure expo).Trace_stats.interarrival_cv in
  let cv_weib = (Trace_stats.measure weib).Trace_stats.interarrival_cv in
  check Alcotest.bool (Printf.sprintf "poisson CV %.2f ~ 1" cv_expo) true
    (abs_float (cv_expo -. 1.) < 0.15);
  check Alcotest.bool
    (Printf.sprintf "weibull k=0.5 CV %.2f well above 1" cv_weib)
    true (cv_weib > 1.5)

let test_stats_fit_round_trip () =
  (* Generate from a known Weibull, extract inter-arrivals, fit: the
     recovered tail weight must match the generator's. *)
  let shape = 0.6 in
  let ts =
    Trace_set.generate ~seed:9L ~replicate:0
      (Weibull.of_mtbf ~mtbf:50. ~shape)
      ~processors:128 ~horizon:10_000.
  in
  let fit = Ckpt_distributions.Fit.weibull (Trace_stats.interarrivals ts) in
  let truth = Weibull.of_mtbf ~mtbf:50. ~shape in
  let ratio d = d.D.quantile 0.9 /. d.D.quantile 0.1 in
  let r_fit = ratio fit.Ckpt_distributions.Fit.distribution and r_truth = ratio truth in
  check Alcotest.bool
    (Printf.sprintf "tail ratio %.1f ~ %.1f" r_fit r_truth)
    true
    (abs_float (r_fit -. r_truth) /. r_truth < 0.25)

let test_availability () =
  let ts =
    Trace_set.of_traces
      [| Trace.of_times ~horizon:100. [| 10.; 30. |]; Trace.of_times ~horizon:100. [||] |]
  in
  close ~tol:1e-9 "repair fraction" (1. -. (2. *. 5. /. 200.))
    (Trace_stats.availability ts ~downtime:5.)

(* -- properties ------------------------------------------------------------------------ *)

let test_trace_set_merge_tie_break () =
  (* Failures sharing a date are ordered by processor index. *)
  let ts =
    Trace_set.of_traces
      [|
        Trace.of_times ~horizon:100. [| 10.; 50. |];
        Trace.of_times ~horizon:100. [| 10.; 20. |];
        Trace.of_times ~horizon:100. [| 10. |];
      |]
  in
  check Alcotest.bool "ties ordered by processor" true
    (Trace_set.events ts = [| (10., 0); (10., 1); (10., 2); (20., 1); (50., 0) |])

let prop_kway_merge_equals_sort =
  (* The heap merge must produce exactly what sorting the concatenated
     streams by (date, processor) produces — including empty traces
     and any tie pattern the generator happens to hit. *)
  QCheck2.Test.make ~name:"k-way merge == sort of the concatenation" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) (int_range 0 1000))
    (fun (procs, seed) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let traces =
        Array.init procs (fun _ -> Trace.generate rng dist100 ~horizon:1000.)
      in
      let ts = Trace_set.of_traces traces in
      let reference =
        let all = ref [] in
        Array.iteri
          (fun proc tr ->
            Array.iter (fun d -> all := (d, proc) :: !all) tr.Trace.failure_times)
          traces;
        let arr = Array.of_list !all in
        Array.sort
          (fun (d1, p1) (d2, p2) ->
            let c = Float.compare d1 d2 in
            if c <> 0 then c else Int.compare p1 p2)
          arr;
        arr
      in
      Trace_set.events ts = reference)

let prop_trace_queries_consistent =
  QCheck2.Test.make ~name:"next/last failure bracket the query point" ~count:200
    QCheck2.Gen.(pair (int_range 0 1000) (float_range 0. 900.))
    (fun (seed, t) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let tr = Trace.generate rng dist100 ~horizon:1000. in
      (match Trace.next_failure_at_or_after tr t with Some v -> v >= t | None -> true)
      && match Trace.last_failure_before tr t with Some v -> v < t | None -> true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_trace_queries_consistent; prop_kway_merge_equals_sort ]

let () =
  Alcotest.run "failures"
    [
      ( "trace",
        [
          Alcotest.test_case "sorted within range" `Quick test_trace_generate_sorted_in_range;
          Alcotest.test_case "expected count" `Quick test_trace_expected_count;
          Alcotest.test_case "validation" `Quick test_trace_of_times_validation;
          Alcotest.test_case "queries" `Quick test_trace_queries;
          Alcotest.test_case "empty" `Quick test_trace_empty;
        ] );
      ( "trace_set",
        [
          Alcotest.test_case "prefix coherence" `Quick test_trace_set_prefix_coherence;
          Alcotest.test_case "replicates differ" `Quick test_trace_set_replicates_differ;
          Alcotest.test_case "merged events" `Quick test_trace_set_merged_sorted_complete;
          Alcotest.test_case "merge tie break" `Quick test_trace_set_merge_tie_break;
          Alcotest.test_case "event index" `Quick test_trace_set_next_event_index;
        ] );
      ( "rejuvenation",
        [
          Alcotest.test_case "exponential: options equal" `Quick test_rejuvenation_exponential_equal;
          Alcotest.test_case "weibull closed form" `Quick test_rejuvenation_weibull_closed_form;
          Alcotest.test_case "weibull: rejuvenate-all hurts" `Quick test_rejuvenation_weibull_hurts;
          Alcotest.test_case "simulation agrees" `Quick test_rejuvenation_simulation_agrees;
        ] );
      ( "failure_log",
        [
          Alcotest.test_case "parse" `Quick test_failure_log_parse;
          Alcotest.test_case "parse errors" `Quick test_failure_log_parse_errors;
          Alcotest.test_case "save/load round trip" `Quick test_failure_log_round_trip;
          Alcotest.test_case "to_distribution" `Quick test_failure_log_distribution;
        ] );
      ( "trace_stats",
        [
          Alcotest.test_case "hand-built" `Quick test_stats_hand_built;
          Alcotest.test_case "recovers generator MTBF" `Quick test_stats_recovers_generator_mtbf;
          Alcotest.test_case "CV detects burstiness" `Quick test_stats_cv_distinguishes_burstiness;
          Alcotest.test_case "fit round trip" `Quick test_stats_fit_round_trip;
          Alcotest.test_case "availability" `Quick test_availability;
        ] );
      ( "lanl_synth",
        [
          Alcotest.test_case "deterministic" `Quick test_lanl_deterministic;
          Alcotest.test_case "mean calibration" `Quick test_lanl_mean_calibration;
          Alcotest.test_case "structure" `Quick test_lanl_structure;
          Alcotest.test_case "invalid parameters" `Quick test_lanl_invalid;
        ] );
      ("properties", qcheck_cases);
    ]
