(* Benchmark harness.

   Usage: bench/main.exe [STAGE...] runs the named stages in the order
   below; with no argument it runs all of them, and an unknown name
   exits 2 with the list.

   experiments  Regenerate every paper table and figure (scaled-down
      replicate counts; control with CKPT_TRACES / CKPT_FULL),
      printing the same rows/series the paper reports.

   micro  A Bechamel micro-benchmark suite: one Test.make per paper
      artifact, timing the computational kernel that artifact leans on
      (plus the core simulator/DP kernels), at miniature scale so the
      whole suite completes in seconds.

   eval  An evaluation-throughput benchmark (replicates/second of
      [Evaluation.degradation_table] on a small Weibull table, serial
      vs parallel), written to BENCH_eval.json so successive PRs can
      track the trajectory.  The new throughput is compared against
      the committed BENCH_eval.json: a drop beyond 2% is reported, and
      fails the run under CKPT_BENCH_ASSERT=1 (tracing stays disabled
      here, so this doubles as the telemetry zero-overhead check).

   telemetry  The same engine run with tracing off vs on (per-run ring
      buffer), reporting events/second and the relative overhead,
      written to BENCH_telemetry.json.

   solver  End-to-end DPNextFailure engine throughput (runs/s,
      decisions/run from the metrics registry, microseconds per
      planning decision), one representative solve pruned vs
      unpruned, Age_summary.build vs Incremental.summarize, and a
      DPMakespan solve, written to BENCH_solver.json.  The run
      throughput is compared against the previous BENCH_solver.json
      (no-regression) or, on first run, against the committed
      BENCH_telemetry.json tracing-off figure (the pre-optimization
      engine, where the PR's >= 3x claim is enforced); failures only
      abort under CKPT_BENCH_ASSERT=1.

   engine  The same replicate x policy workload driven one replicate
      at a time ([Engine.run] per replicate, what every caller outside
      the evaluation harness runs) vs 16-wide stripes whose slots
      share their lifetime templates across policies
      ([Engine.run_stripe], what the evaluation harness runs), at p in
      {1024, 16384} on a single domain, each arm's time the median of
      5 interleaved repeats, written to BENCH_engine.json.  The two
      arms must produce bit-identical outcomes; under
      CKPT_BENCH_ASSERT=1 no point may fall below 1.0x (stripes
      slower than single runs).  CKPT_BENCH_SMOKE=1 shrinks the
      replicate count for CI.

   sweep  `ckpt sweep --workers N` on the sweep-smoke study at N in
      {1, 2, 4} over fresh stores, reporting units/second and the
      speedup over one worker, written to BENCH_sweep.json with the
      physical core count recorded.  Every N's CSV output must be
      byte-identical to N = 1; points with more workers than cores are
      flagged oversubscribed and never verify the speedup target, and
      under CKPT_BENCH_ASSERT=1 an unverifiable target (or a miss)
      fails the run.  CKPT_BENCH_SMOKE=1 shrinks the workload.

   Every BENCH_*.json gains a provenance sidecar (<file>.meta.json). *)

open Bechamel
open Toolkit
module D = Ckpt_distributions
module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator
module F = Ckpt_failures
module C = Ckpt_core
module E = Ckpt_experiments
module T = Ckpt_telemetry

(* -- experiments: regenerate the paper -------------------------------------- *)

let experiments_config () =
  let c = E.Config.default () in
  if c.E.Config.replicates > 0 || c.E.Config.full then c
  else { c with E.Config.replicates = 5 }

let run_experiments () =
  let config = experiments_config () in
  Printf.printf "Regenerating every table/figure (%d traces per configuration)\n"
    (E.Config.scale config ~quick:5 ~full:600);
  Printf.printf "(set CKPT_TRACES / CKPT_FULL=1 to rescale; the paper uses 600)\n%!";
  E.Registry.run_all config

(* -- micro: micro-benchmarks ------------------------------------------------ *)

(* Shared miniature fixtures, built once outside the timed closures. *)

let weibull = D.Weibull.of_mtbf ~mtbf:(P.Units.of_years 125.) ~shape:0.7
let exponential = D.Exponential.of_mtbf ~mtbf:(P.Units.of_years 125.)

let mini_machine p =
  P.Machine.create ~total_processors:p ~downtime:60. ~overhead:(P.Overhead.constant 600.)

let mini_job ~dist ~processors =
  Po.Job.create ~dist ~processors ~machine:(mini_machine processors)
    ~work_time:(P.Units.of_years 1000. /. float_of_int processors)

let sequential_job =
  Po.Job.create
    ~dist:(D.Exponential.of_mtbf ~mtbf:P.Units.day)
    ~processors:1 ~machine:(mini_machine 1) ~work_time:(P.Units.of_days 20.)

let sequential_scenario = S.Scenario.create sequential_job
let sequential_traces = S.Scenario.traces sequential_scenario ~replicate:0

let peta_exp_job = mini_job ~dist:exponential ~processors:2048
let peta_exp_scenario = S.Scenario.create peta_exp_job
let peta_exp_traces = S.Scenario.traces peta_exp_scenario ~replicate:0

let peta_weib_job = mini_job ~dist:weibull ~processors:2048
let peta_weib_scenario = S.Scenario.create peta_weib_job
let peta_weib_traces = S.Scenario.traces peta_weib_scenario ~replicate:0

let lanl_log = F.Lanl_synth.generate F.Lanl_synth.cluster19_parameters
let lanl_dist = F.Failure_log.to_distribution lanl_log

let lanl_job =
  Po.Job.with_group_size
    (Po.Job.create ~dist:lanl_dist ~processors:4096 ~machine:(mini_machine 4096)
       ~work_time:P.Units.day)
    F.Lanl_synth.node_group_size

let lanl_scenario = S.Scenario.create lanl_job
let lanl_traces = S.Scenario.traces lanl_scenario ~replicate:0

let jaguar_ages =
  let rng = Ckpt_prng.Rng.create ~seed:1L in
  Array.init P.Presets.jaguar_processors (fun _ ->
      Ckpt_prng.Rng.uniform rng *. P.Units.of_years 1.)

let run_once ~scenario ~traces ~policy =
  match S.Engine.run ~scenario ~traces ~policy () with
  | S.Engine.Completed m -> m.S.Engine.makespan
  | S.Engine.Policy_failed _ -> nan

let dpnf_plan job ages =
  let context = Po.Job.dp_context job ~platform_view:false in
  let summary =
    C.Age_summary.build context.C.Dp_context.dist
      ~processors:(Array.length ages)
      ~iter_ages:(fun f -> Array.iter f ages)
  in
  C.Dp_next_failure.solve ~context ~ages:summary ~work:job.Po.Job.work_time ()

let stage name f = Test.make ~name (Staged.stage f)

(* One bench per paper artifact: the kernel that dominates its cost. *)
let artifact_tests =
  Test.make_grouped ~name:"artifacts"
    [
      stage "fig1/platform-mtbf-series" (fun () ->
          F.Rejuvenation.figure1_series ~mtbf:(P.Units.of_years 125.) ~shape:0.7 ~downtime:60.
            ~processor_exponents:[ 4; 8; 12; 16; 20 ]);
      stage "table2/sequential-exponential-run" (fun () ->
          run_once ~scenario:sequential_scenario ~traces:sequential_traces
            ~policy:(Po.Optexp.policy sequential_job));
      stage "table3/sequential-dpmakespan-solve" (fun () ->
          let context = Po.Job.dp_context sequential_job ~platform_view:false in
          C.Dp_makespan.solve ~cap_states:300 ~context ~work:sequential_job.Po.Job.work_time
            ~initial_age:0. ());
      stage "fig2/petascale-exponential-run" (fun () ->
          run_once ~scenario:peta_exp_scenario ~traces:peta_exp_traces
            ~policy:(Po.Optexp.policy peta_exp_job));
      stage "fig3/exascale-trace-generation" (fun () ->
          F.Trace_set.generate ~seed:2L ~replicate:0 exponential ~processors:16384
            ~horizon:(P.Units.of_years 11.));
      stage "fig4/petascale-weibull-dpnf-run" (fun () ->
          run_once ~scenario:peta_weib_scenario ~traces:peta_weib_traces
            ~policy:(Po.Dp_policies.dp_next_failure peta_weib_job));
      stage "fig5/dpnf-plan-small-shape" (fun () ->
          let dist = D.Weibull.of_mtbf ~mtbf:(P.Units.of_years 125.) ~shape:0.5 in
          let job = mini_job ~dist ~processors:2048 in
          dpnf_plan job (Array.sub jaguar_ages 0 2048));
      stage "fig6/exascale-platform-distribution" (fun () ->
          D.Distribution.min_of_iid weibull (1 lsl 20));
      stage "fig7/logbased-empirical-psuc" (fun () ->
          let acc = ref 0. in
          for i = 1 to 1000 do
            acc :=
              !acc
              +. D.Distribution.conditional_survival lanl_dist
                   ~age:(float_of_int i *. 3600.)
                   ~duration:600.
          done;
          !acc);
      stage "table4/age-summary-45208" (fun () ->
          C.Age_summary.build weibull ~processors:(Array.length jaguar_ages)
            ~iter_ages:(fun f -> Array.iter f jaguar_ages));
      stage "fig8/period-sweep-point" (fun () ->
          run_once ~scenario:sequential_scenario ~traces:sequential_traces
            ~policy:(Po.Policy.periodic "sweep" ~period:(2. *. Po.Young.period sequential_job)));
      stage "fig9/weibull-sequential-run" (fun () ->
          let job =
            Po.Job.create
              ~dist:(D.Weibull.of_mtbf ~mtbf:P.Units.day ~shape:0.7)
              ~processors:1 ~machine:(mini_machine 1) ~work_time:(P.Units.of_days 20.)
          in
          let scenario = S.Scenario.create job in
          let traces = S.Scenario.traces scenario ~replicate:0 in
          run_once ~scenario ~traces ~policy:(Po.Young.policy job));
      stage "grid/amdahl-workload-model" (fun () ->
          let w =
            P.Workload.create ~total_work:(P.Units.of_years 1000.)
              ~model:(P.Workload.Amdahl 1e-6)
          in
          let acc = ref 0. in
          for p = 1 to 4096 do
            acc := !acc +. P.Workload.parallel_time w ~processors:p
          done;
          !acc);
      stage "fig98/optexp-periods-all-models" (fun () ->
          List.map
            (fun model ->
              let w = P.Workload.create ~total_work:(P.Units.of_years 1000.) ~model in
              let job =
                Po.Job.of_workload ~dist:exponential ~processors:2048
                  ~machine:(mini_machine 2048) ~workload:w
              in
              Po.Optexp.period job)
            (P.Workload.all_paper_models ()));
      stage "fig99/dpnf-plan-jaguar-ages" (fun () ->
          dpnf_plan peta_weib_job (Array.sub jaguar_ages 0 2048));
      stage "fig100/logbased-engine-run" (fun () ->
          run_once ~scenario:lanl_scenario ~traces:lanl_traces ~policy:(Po.Daly.high lanl_job));
      stage "ablation/age-summary-nexact40" (fun () ->
          C.Age_summary.build ~nexact:40 weibull ~processors:(Array.length jaguar_ages)
            ~iter_ages:(fun f -> Array.iter f jaguar_ages));
      stage "energy/metrics-accounting" (fun () ->
          match
            S.Engine.run ~scenario:peta_exp_scenario ~traces:peta_exp_traces
              ~policy:(Po.Young.policy peta_exp_job) ()
          with
          | S.Engine.Completed m -> S.Energy.of_metrics S.Energy.default_power ~processors:2048 m
          | S.Engine.Policy_failed _ -> nan);
      stage "replication/lower-bound-run" (fun () ->
          S.Engine.lower_bound ~scenario:peta_weib_scenario ~traces:peta_weib_traces ());
    ]

(* Core kernels underneath everything. *)
let kernel_tests =
  Test.make_grouped ~name:"kernels"
    [
      stage "lambert-w0" (fun () -> Ckpt_numerics.Lambert_w.w0 (-0.2));
      stage "theorem1-chunk-count" (fun () ->
          C.Theory.optimal_chunk_count
            ~rate:(1. /. P.Units.day)
            ~work:(P.Units.of_days 20.) ~checkpoint:600.);
      stage "weibull-sample-1k" (fun () ->
          let rng = Ckpt_prng.Rng.create ~seed:3L in
          let acc = ref 0. in
          for _ = 1 to 1000 do
            acc := !acc +. weibull.D.Distribution.sample rng
          done;
          !acc);
      stage "weibull-conditional-survival" (fun () ->
          D.Distribution.conditional_survival weibull ~age:3e7 ~duration:1e4);
      stage "expected-tlost-weibull" (fun () ->
          D.Distribution.expected_tlost weibull ~age:3e7 ~window:1e4);
      stage "trace-generation-1024" (fun () ->
          F.Trace_set.generate ~seed:4L ~replicate:0 weibull ~processors:1024
            ~horizon:(P.Units.of_years 11.));
      stage "engine-run-petascale" (fun () ->
          run_once ~scenario:peta_weib_scenario ~traces:peta_weib_traces
            ~policy:(Po.Young.policy peta_weib_job));
      stage "dpnf-solve-default" (fun () ->
          dpnf_plan peta_weib_job (Array.sub jaguar_ages 0 2048));
      stage "dpmakespan-solve-small" (fun () ->
          let context = Po.Job.dp_context sequential_job ~platform_view:false in
          C.Dp_makespan.solve ~cap_states:100 ~context ~work:(P.Units.of_days 20.)
            ~initial_age:0. ());
      stage "bouguerra-period-search" (fun () -> Po.Bouguerra.period peta_weib_job);
    ]

let benchmark tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:32 ~quota:(Time.second 0.25) ~stabilize:false ~kde:(Some 32) ()
  in
  Benchmark.all cfg instances tests

let analyze results =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock results in
  Analyze.merge ols Instance.[ monotonic_clock ] [ results ]

let () =
  Bechamel_notty.Unit.add Instance.monotonic_clock (Measure.unit Instance.monotonic_clock)

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results

open Notty_unix

let run_micro () =
  print_endline "\n=== Bechamel micro-benchmarks (one per artifact + core kernels) ===";
  let window =
    match winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  List.iter
    (fun tests ->
      let results = analyze (benchmark tests) in
      img (window, results) |> eol |> output_image)
    [ artifact_tests; kernel_tests ]

(* -- eval: evaluation throughput -------------------------------------------- *)

let with_env key value f =
  let previous = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv key (match previous with Some v -> v | None -> ""))

let with_domains n f = with_env "CKPT_DOMAINS" (string_of_int n) f

let eval_bench_replicates = 64

(* Big enough that a replicate costs tens of milliseconds (trace
   generation + three policy runs + the omniscient bound), so the
   domain fan-out dominates its startup cost on multicore hosts. *)
let eval_bench_processors = 16384

(* One timed table.  A fresh scenario per measurement keeps the
   trace-set cache cold, so serial and parallel runs do the same
   work. *)
let timed_eval_table ~domains =
  let job = mini_job ~dist:weibull ~processors:eval_bench_processors in
  let scenario = S.Scenario.create job in
  let policies = [ Po.Young.policy job; Po.Daly.high job; Po.Optexp.policy job ] in
  with_domains domains (fun () ->
      let t0 = Unix.gettimeofday () in
      let table =
        S.Evaluation.degradation_table ~scenario ~policies ~replicates:eval_bench_replicates
      in
      (table, Unix.gettimeofday () -. t0))

(* The committed BENCH_*.json artifacts carry the previous PR's
   numbers; recover one top-level field through the real JSON parser
   (the old substring scan broke on any field whose name was a suffix
   of another). *)
let previous_json_field ~path ~field =
  match Ckpt_store.Atomic_file.read path with
  | None -> None
  | Some contents -> (
      match T.Json.parse contents with
      | Error _ -> None
      | Ok j -> Option.bind (T.Json.member j field) T.Json.to_float)

let write_bench_json ~path ~meta contents =
  Ckpt_store.Atomic_file.write ~path contents;
  T.Provenance.write_sidecar ~extra:meta ~path ();
  Printf.printf "wrote %s (and %s)\n%!" path (T.Provenance.sidecar_path path)

let run_eval_bench () =
  Printf.printf
    "\n=== Evaluation throughput (%d-replicate Weibull table, %d processors) ===\n%!"
    eval_bench_replicates eval_bench_processors;
  let previous =
    previous_json_field ~path:"BENCH_eval.json" ~field:"parallel_replicates_per_sec"
  in
  let domains = Ckpt_parallel.Domain_pool.recommended_domains () in
  let serial_table, serial_s = timed_eval_table ~domains:1 in
  let parallel_table, parallel_s = timed_eval_table ~domains in
  let throughput s = float_of_int eval_bench_replicates /. s in
  let speedup = serial_s /. parallel_s in
  Printf.printf "serial   (1 domain):   %7.2f s  %7.2f replicates/s\n" serial_s
    (throughput serial_s);
  Printf.printf "parallel (%d domains): %7.2f s  %7.2f replicates/s  (speedup %.2fx)\n" domains
    parallel_s (throughput parallel_s) speedup;
  Printf.printf "deterministic: %s\n%!"
    (if serial_table = parallel_table then "parallel table == serial table"
     else "MISMATCH between serial and parallel tables");
  if serial_table <> parallel_table then exit 1;
  (* Telemetry must cost nothing when off: tracing/metrics are
     disabled here, so a throughput drop beyond 2% against the
     committed baseline is a regression.  Wall-clock baselines from
     other machines are noisy, so the comparison is reported always
     but only enforced under CKPT_BENCH_ASSERT=1. *)
  (match previous with
  | Some prev when prev > 0. ->
      let ratio = throughput parallel_s /. prev in
      Printf.printf "vs committed BENCH_eval.json: %.1f%% of previous throughput (%.2f/s)\n%!"
        (100. *. ratio) prev;
      if ratio < 0.98 then
        if Sys.getenv_opt "CKPT_BENCH_ASSERT" = Some "1" then begin
          Printf.eprintf "FAIL: throughput dropped more than 2%% below the baseline\n%!";
          exit 1
        end
        else
          Printf.printf
            "WARNING: more than 2%% below the baseline (set CKPT_BENCH_ASSERT=1 to enforce)\n%!"
  | Some _ | None -> Printf.printf "no previous BENCH_eval.json baseline to compare against\n%!");
  write_bench_json ~path:"BENCH_eval.json"
    ~meta:[ ("bench", "evaluation-throughput") ]
    (Printf.sprintf
       "{\n\
       \  \"bench\": \"evaluation-throughput\",\n\
       \  \"replicates\": %d,\n\
       \  \"processors\": %d,\n\
       \  \"policies\": 3,\n\
       \  \"distribution\": \"weibull(k=0.7)\",\n\
       \  \"domains\": %d,\n\
       \  \"serial_seconds\": %.6f,\n\
       \  \"parallel_seconds\": %.6f,\n\
       \  \"serial_replicates_per_sec\": %.3f,\n\
       \  \"parallel_replicates_per_sec\": %.3f,\n\
       \  \"speedup\": %.3f,\n\
       \  \"deterministic\": true\n\
        }\n"
       eval_bench_replicates eval_bench_processors domains serial_s parallel_s
       (throughput serial_s) (throughput parallel_s) speedup)

(* -- telemetry: tracing overhead -------------------------------------------- *)

let telemetry_bench_runs = 32

let run_telemetry_bench () =
  Printf.printf "\n=== Telemetry (engine run with tracing off vs on, %d runs each) ===\n%!"
    telemetry_bench_runs;
  let policy = Po.Dp_policies.dp_next_failure peta_weib_job in
  let scenario = peta_weib_scenario and traces = peta_weib_traces in
  (* Warm both paths (DP tables, allocator) outside the timed loops. *)
  ignore (S.Engine.run ~scenario ~traces ~policy ());
  let timed f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to telemetry_bench_runs do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let off_s = timed (fun () -> ignore (S.Engine.run ~scenario ~traces ~policy ())) in
  let events = ref 0 in
  let on_s =
    timed (fun () ->
        let buf = T.Tracer.create_buffer ~name:"bench" () in
        ignore (S.Engine.run ~trace:buf ~scenario ~traces ~policy ());
        events := !events + T.Tracer.length buf + T.Tracer.dropped buf)
  in
  let events_per_sec = float_of_int !events /. on_s in
  let overhead_pct = 100. *. ((on_s /. off_s) -. 1.) in
  Printf.printf "tracing off: %8.4f s   tracing on: %8.4f s   overhead %+.1f%%\n" off_s on_s
    overhead_pct;
  Printf.printf "%d events captured, %.3g events/s\n%!" !events events_per_sec;
  write_bench_json ~path:"BENCH_telemetry.json"
    ~meta:[ ("bench", "telemetry-overhead") ]
    (Printf.sprintf
       "{\n\
       \  \"bench\": \"telemetry-overhead\",\n\
       \  \"runs\": %d,\n\
       \  \"processors\": %d,\n\
       \  \"policy\": \"DPNextFailure\",\n\
       \  \"distribution\": \"weibull(k=0.7)\",\n\
       \  \"tracing_off_seconds\": %.6f,\n\
       \  \"tracing_on_seconds\": %.6f,\n\
       \  \"tracing_overhead_percent\": %.2f,\n\
       \  \"events\": %d,\n\
       \  \"events_per_sec\": %.1f\n\
        }\n"
       telemetry_bench_runs eval_bench_processors off_s on_s overhead_pct !events
       events_per_sec)

(* -- solver: solver hot path ------------------------------------------------- *)

let solver_bench_runs = 16

let timed_mean n f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n

(* Read before stages 3-4 run: they overwrite the committed files the
   comparison is against. *)
let solver_baselines () =
  let previous = previous_json_field ~path:"BENCH_solver.json" ~field:"dpnf_runs_per_sec" in
  let telemetry_baseline =
    match previous_json_field ~path:"BENCH_telemetry.json" ~field:"tracing_off_seconds" with
    | Some s when s > 0. -> Some (float_of_int telemetry_bench_runs /. s)
    | Some _ | None -> None
  in
  (previous, telemetry_baseline)

let run_solver_bench ~baselines:(previous, telemetry_baseline) () =
  Printf.printf "\n=== Solver hot path (DPNextFailure / DPMakespan, %d engine runs) ===\n%!"
    solver_bench_runs;
  let policy = Po.Dp_policies.dp_next_failure peta_weib_job in
  let scenario = peta_weib_scenario and traces = peta_weib_traces in
  (* Warm the trace cache and allocator outside the timed loop, and
     count planning decisions per run via the metrics registry. *)
  let was_enabled = T.Metrics.enabled () in
  T.Metrics.set_enabled true;
  T.Metrics.reset ~prefix:"dp_next_failure/" ();
  ignore (S.Engine.run ~scenario ~traces ~policy ());
  let counter name =
    match T.Metrics.find name with Some (T.Metrics.Counter n) -> n | _ -> 0
  in
  let decisions_per_run = counter "dp_next_failure/solves" in
  let candidates_per_run = counter "dp_next_failure/candidates_scanned" in
  T.Metrics.set_enabled was_enabled;
  let run_s =
    timed_mean solver_bench_runs (fun () -> ignore (S.Engine.run ~scenario ~traces ~policy ()))
  in
  let runs_per_sec = 1. /. run_s in
  let us_per_decision = 1e6 *. run_s /. float_of_int (max 1 decisions_per_run) in
  Printf.printf "engine run: %.2f runs/s, %d decisions/run, %.1f us/decision\n%!" runs_per_sec
    decisions_per_run us_per_decision;
  (* One representative planning instance, pruned vs unpruned. *)
  let context = Po.Job.dp_context peta_weib_job ~platform_view:false in
  let ages = Array.sub jaguar_ages 0 2048 in
  let summary =
    C.Age_summary.build context.C.Dp_context.dist ~processors:(Array.length ages)
      ~iter_ages:(fun f -> Array.iter f ages)
  in
  let solve prune =
    ignore
      (C.Dp_next_failure.solve ~prune ~context ~ages:summary
         ~work:peta_weib_job.Po.Job.work_time ())
  in
  let pruned_ms = 1e3 *. timed_mean 20 (fun () -> solve true) in
  let unpruned_ms = 1e3 *. timed_mean 20 (fun () -> solve false) in
  Printf.printf "solve: pruned %.3f ms, unpruned %.3f ms (%.2fx)\n%!" pruned_ms unpruned_ms
    (unpruned_ms /. pruned_ms);
  (* Age bookkeeping: O(p) rebuild vs the engine's incremental path. *)
  let births =
    Array.init eval_bench_processors (fun i -> float_of_int ((i * 7919) mod 97) *. 1e4)
  in
  let incremental = C.Age_summary.Incremental.create ~births in
  let dist = context.C.Dp_context.dist in
  let now = 2e6 in
  let build_us =
    1e6
    *. timed_mean 50 (fun () ->
           ignore
             (C.Age_summary.build dist ~processors:eval_bench_processors
                ~iter_ages:(fun f -> Array.iter (fun b -> f (now -. b)) births)))
  in
  let summarize_us =
    1e6
    *. timed_mean 50 (fun () -> ignore (C.Age_summary.Incremental.summarize incremental dist ~now))
  in
  Printf.printf "age summary (p=%d): build %.1f us, incremental summarize %.1f us (%.1fx)\n%!"
    eval_bench_processors build_us summarize_us (build_us /. summarize_us);
  let seq_context = Po.Job.dp_context sequential_job ~platform_view:false in
  let dpm_ms =
    1e3
    *. timed_mean 10 (fun () ->
           ignore
             (C.Dp_makespan.solve ~cap_states:300 ~context:seq_context
                ~work:sequential_job.Po.Job.work_time ~initial_age:0. ()))
  in
  Printf.printf "dpmakespan solve (flat memo): %.3f ms\n%!" dpm_ms;
  let assert_enabled = Sys.getenv_opt "CKPT_BENCH_ASSERT" = Some "1" in
  let baseline_source, baseline_runs_per_sec =
    match (previous, telemetry_baseline) with
    | Some prev, _ when prev > 0. -> ("BENCH_solver.json", prev)
    | None, Some base when base > 0. -> ("BENCH_telemetry.json", base)
    | _ -> ("none", 0.)
  in
  let vs_baseline = if baseline_runs_per_sec > 0. then runs_per_sec /. baseline_runs_per_sec else 0. in
  (match baseline_source with
  | "BENCH_solver.json" ->
      Printf.printf "vs committed BENCH_solver.json: %.1f%% of previous throughput (%.2f runs/s)\n%!"
        (100. *. vs_baseline) baseline_runs_per_sec;
      if vs_baseline < 0.98 then
        if assert_enabled then begin
          Printf.eprintf "FAIL: DPNF run throughput dropped more than 2%% below the baseline\n%!";
          exit 1
        end
        else
          Printf.printf
            "WARNING: more than 2%% below the baseline (set CKPT_BENCH_ASSERT=1 to enforce)\n%!"
  | "BENCH_telemetry.json" ->
      Printf.printf
        "vs committed BENCH_telemetry.json (pre-optimization engine): %.2fx run throughput\n%!"
        vs_baseline;
      if vs_baseline < 3. then
        if assert_enabled then begin
          Printf.eprintf "FAIL: DPNF run throughput below the 3x optimization target\n%!";
          exit 1
        end
        else Printf.printf "WARNING: below the 3x target (set CKPT_BENCH_ASSERT=1 to enforce)\n%!"
  | _ -> Printf.printf "no committed baseline to compare against\n%!");
  write_bench_json ~path:"BENCH_solver.json"
    ~meta:[ ("bench", "solver-hot-path") ]
    (Printf.sprintf
       "{\n\
       \  \"bench\": \"solver-hot-path\",\n\
       \  \"engine_runs\": %d,\n\
       \  \"processors\": 2048,\n\
       \  \"policy\": \"DPNextFailure\",\n\
       \  \"distribution\": \"weibull(k=0.7)\",\n\
       \  \"dpnf_runs_per_sec\": %.3f,\n\
       \  \"dpnf_decisions_per_run\": %d,\n\
       \  \"dpnf_us_per_decision\": %.2f,\n\
       \  \"dpnf_candidates_per_run\": %d,\n\
       \  \"dpnf_solve_pruned_ms\": %.4f,\n\
       \  \"dpnf_solve_unpruned_ms\": %.4f,\n\
       \  \"dpnf_prune_speedup\": %.3f,\n\
       \  \"age_summary_build_us\": %.2f,\n\
       \  \"age_summary_incremental_us\": %.2f,\n\
       \  \"age_summary_processors\": %d,\n\
       \  \"dpm_solve_ms\": %.4f,\n\
       \  \"baseline_source\": \"%s\",\n\
       \  \"baseline_runs_per_sec\": %.3f,\n\
       \  \"vs_baseline_speedup\": %.3f\n\
        }\n"
       solver_bench_runs runs_per_sec decisions_per_run us_per_decision candidates_per_run
       pruned_ms unpruned_ms
       (unpruned_ms /. pruned_ms)
       build_us summarize_us eval_bench_processors dpm_ms baseline_source baseline_runs_per_sec
       vs_baseline)

(* -- engine: engine throughput (single runs vs stripes) ---------------------- *)

let engine_bench_processor_counts = [ 1024; 16384 ]
let engine_bench_stripe = 16
let engine_bench_repeats = 5

let engine_bench_replicates () =
  if Sys.getenv_opt "CKPT_BENCH_SMOKE" = Some "1" then 8 else 32

let run_engine_bench () =
  let replicates = engine_bench_replicates () in
  Printf.printf
    "\n\
     === Engine (single runs vs %d-wide stripes, %d replicates x 3 policies, median of %d, 1 \
     domain) ===\n\
     %!"
    engine_bench_stripe replicates engine_bench_repeats;
  let previous = previous_json_field ~path:"BENCH_engine.json" ~field:"min_speedup" in
  let identical = ref true in
  let curve =
    List.map
      (fun processors ->
        let job = mini_job ~dist:weibull ~processors in
        let scenario = S.Scenario.create job in
        let policies = [| Po.Young.policy job; Po.Daly.high job; Po.Optexp.policy job |] in
        (* Trace sets are generated once and held, so both arms time
           pure engine work — never trace generation or the scenario
           cache. *)
        let traces = Array.init replicates (fun i -> S.Scenario.traces scenario ~replicate:i) in
        let single () =
          Array.map
            (fun policy -> Array.map (fun tr -> S.Engine.run ~scenario ~traces:tr ~policy ()) traces)
            policies
        in
        (* The stripe arm mirrors the evaluation harness: one lockstep
           pass per policy over each stripe, the slots' lifetime
           templates computed once and shared by all three policies. *)
        let striped () =
          let stripes = (replicates + engine_bench_stripe - 1) / engine_bench_stripe in
          let per_stripe =
            Array.init stripes (fun stripe ->
                let first = stripe * engine_bench_stripe in
                let len = min engine_bench_stripe (replicates - first) in
                let stripe_traces = Array.sub traces first len in
                let initial_births =
                  Array.map (S.Scenario.initial_lifetime_starts scenario) stripe_traces
                in
                Array.map
                  (fun policy ->
                    S.Engine.run_stripe ~initial_births ~scenario ~traces:stripe_traces ~policy ())
                  policies)
          in
          Array.init (Array.length policies) (fun j ->
              Array.concat (Array.to_list (Array.map (fun per -> per.(j)) per_stripe)))
        in
        let timed f =
          let t0 = Unix.gettimeofday () in
          let v = f () in
          (Unix.gettimeofday () -. t0, v)
        in
        (* Warm both arms (allocator, lazy structures) outside the timed
           repeats, then interleave them so drift hits both alike. *)
        if compare (single ()) (striped ()) <> 0 then identical := false;
        let runs =
          List.init engine_bench_repeats (fun _ ->
              let single_s, a = timed single in
              let stripe_s, b = timed striped in
              if compare a b <> 0 then identical := false;
              (single_s, stripe_s))
        in
        let median xs =
          let a = Array.of_list (List.sort compare xs) in
          a.(Array.length a / 2)
        in
        let single_s = median (List.map fst runs) and stripe_s = median (List.map snd runs) in
        let throughput s = float_of_int replicates /. s in
        Printf.printf
          "p=%5d: single runs %7.4f s (%8.2f rep/s)   stripes %7.4f s (%8.2f rep/s)   speedup \
           %.2fx\n\
           %!"
          processors single_s (throughput single_s) stripe_s (throughput stripe_s)
          (single_s /. stripe_s);
        (processors, single_s, stripe_s))
      engine_bench_processor_counts
  in
  Printf.printf "bit-identical: %s\n%!"
    (if !identical then "stripe slot outcomes == single-run outcomes at every point"
     else "MISMATCH between stripe slots and single runs");
  if not !identical then exit 1;
  let speedup (_, single_s, stripe_s) = single_s /. stripe_s in
  let min_speedup = List.fold_left (fun acc pt -> Float.min acc (speedup pt)) infinity curve in
  let speedup_at_16384 =
    List.fold_left (fun acc ((p, _, _) as pt) -> if p = 16384 then speedup pt else acc) 0. curve
  in
  Printf.printf "lowest speedup over the curve: %.2fx (target: no point below 1.0x)\n%!"
    min_speedup;
  (match previous with
  | Some prev when prev > 0. ->
      Printf.printf "vs committed BENCH_engine.json: previous min_speedup was %.2fx\n%!" prev
  | Some _ | None -> Printf.printf "no previous BENCH_engine.json baseline to compare against\n%!");
  if min_speedup < 1. then begin
    if Sys.getenv_opt "CKPT_BENCH_ASSERT" = Some "1" then begin
      Printf.eprintf "FAIL: stripes slower than single runs at some point of the curve\n%!";
      exit 1
    end
    else Printf.printf "WARNING: a point below 1.0x (CKPT_BENCH_ASSERT=1 enforces)\n%!"
  end;
  let curve_json =
    String.concat ",\n"
      (List.map
         (fun ((processors, single_s, stripe_s) as pt) ->
           Printf.sprintf
             "    { \"processors\": %d, \"single_seconds\": %.6f, \"stripe_seconds\": %.6f, \
              \"single_replicates_per_sec\": %.3f, \"stripe_replicates_per_sec\": %.3f, \
              \"speedup\": %.3f }"
             processors single_s stripe_s
             (float_of_int replicates /. single_s)
             (float_of_int replicates /. stripe_s)
             (speedup pt))
         curve)
  in
  write_bench_json ~path:"BENCH_engine.json"
    ~meta:[ ("bench", "engine-throughput") ]
    (Printf.sprintf
       "{\n\
       \  \"bench\": \"engine-throughput\",\n\
       \  \"replicates\": %d,\n\
       \  \"stripe\": %d,\n\
       \  \"repeats\": %d,\n\
       \  \"engine\": \"single-vs-stripe\",\n\
       \  \"policies\": 3,\n\
       \  \"distribution\": \"weibull(k=0.7)\",\n\
       \  \"domains\": 1,\n\
       \  \"curve\": [\n\
        %s\n\
       \  ],\n\
       \  \"min_speedup\": %.3f,\n\
       \  \"speedup_at_16384\": %.3f,\n\
       \  \"deterministic\": true\n\
        }\n"
       replicates engine_bench_stripe engine_bench_repeats curve_json min_speedup
       speedup_at_16384)

(* -- sweep: multi-process sweep workers ------------------------------------- *)

let sweep_worker_counts = [ 1; 2; 4 ]
let sweep_bench_stripe = 4

let sweep_bench_traces () =
  if Sys.getenv_opt "CKPT_BENCH_SMOKE" = Some "1" then 16 else 48

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* The worker path spawns processes, so this stage drives the real ckpt
   binary (built alongside this bench executable) end to end rather
   than calling into the library: what is measured is exactly what a
   user runs. *)
let ckpt_exe () =
  let dir = Filename.dirname Sys.executable_name in
  let candidate = Filename.concat dir (Filename.concat ".." "bin/ckpt.exe") in
  if Sys.file_exists candidate then Some candidate else None

let run_sweep_bench () =
  let traces = sweep_bench_traces () in
  Printf.printf
    "\n=== Sweep workers (ckpt sweep --workers N, sweep-smoke, %d replicates, stripe %d) ===\n%!"
    traces sweep_bench_stripe;
  let assert_enabled = Sys.getenv_opt "CKPT_BENCH_ASSERT" = Some "1" in
  match ckpt_exe () with
  | None ->
      Printf.printf "SKIP: ckpt binary not found next to the bench executable\n%!";
      if assert_enabled then begin
        Printf.eprintf "FAIL: CKPT_BENCH_ASSERT=1 but the sweep-worker stage could not run\n%!";
        exit 1
      end
  | Some exe ->
      let physical_cores = Domain.recommended_domain_count () in
      let oversubscribed workers = workers > physical_cores in
      let base =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ckpt-bench-sweep.%d" (Unix.getpid ()))
      in
      rm_rf base;
      Ckpt_store.Atomic_file.mkdir_p base;
      let run_one workers =
        let store = Filename.concat base (Printf.sprintf "store-w%d" workers) in
        let results = Filename.concat base (Printf.sprintf "results-w%d" workers) in
        let log = Filename.concat base (Printf.sprintf "sweep-w%d.log" workers) in
        with_env "CKPT_TRACES" (string_of_int traces) (fun () ->
            with_env "CKPT_SWEEP_STRIPE" (string_of_int sweep_bench_stripe) (fun () ->
                with_env "CKPT_RESULTS_DIR" results (fun () ->
                    let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
                    let t0 = Unix.gettimeofday () in
                    let pid =
                      Unix.create_process exe
                        [|
                          exe; "sweep"; "--resume"; store; "--workers";
                          string_of_int workers; "sweep-smoke";
                        |]
                        Unix.stdin fd fd
                    in
                    Unix.close fd;
                    let _, status = Unix.waitpid [] pid in
                    let seconds = Unix.gettimeofday () -. t0 in
                    (match status with
                    | Unix.WEXITED 0 -> ()
                    | _ ->
                        Printf.eprintf
                          "FAIL: ckpt sweep --workers %d did not exit cleanly (see %s)\n%!"
                          workers log;
                        exit 1);
                    let units =
                      Array.fold_left
                        (fun n name ->
                          if Filename.check_suffix name ".part" then n + 1 else n)
                        0 (Sys.readdir store)
                    in
                    Printf.printf
                      "workers=%d: %7.3f s   %d units (%6.2f units/s)%s\n%!" workers
                      seconds units
                      (float_of_int units /. seconds)
                      (if oversubscribed workers then
                         Printf.sprintf "   [oversubscribed: %d physical cores]"
                           physical_cores
                       else "");
                    (workers, seconds, units, results))))
      in
      let runs = List.map run_one sweep_worker_counts in
      (* Byte-identity of every worker count's CSV output against the
         serial run: the whole point of the claim-and-merge design. *)
      let csvs dir =
        match Sys.readdir dir with
        | names ->
            let l =
              Array.to_list names |> List.filter (fun n -> Filename.check_suffix n ".csv")
            in
            List.sort compare l
        | exception Sys_error _ -> []
      in
      let reference =
        match List.find_opt (fun (w, _, _, _) -> w = 1) runs with
        | Some (_, _, _, results) -> results
        | None -> assert false
      in
      let identical = ref true in
      List.iter
        (fun (workers, _, _, results) ->
          if workers <> 1 then begin
            let names = csvs results in
            if names <> csvs reference then identical := false
            else
              List.iter
                (fun name ->
                  let read dir = Ckpt_store.Atomic_file.read (Filename.concat dir name) in
                  if read results <> read reference then identical := false)
                names
          end)
        runs;
      Printf.printf "byte-identical: %s\n%!"
        (if !identical then "every worker count reproduces the serial CSVs"
         else "MISMATCH against the --workers 1 output");
      if not !identical then exit 1;
      let serial_seconds =
        match List.find_opt (fun (w, _, _, _) -> w = 1) runs with
        | Some (_, s, _, _) -> s
        | None -> assert false
      in
      (* The speedup target only means something where the workers are
         real cores. *)
      let target_points =
        List.filter (fun (w, _, _, _) -> w >= 2 && not (oversubscribed w)) runs
      in
      let target_verifiable = target_points <> [] in
      let best_speedup =
        List.fold_left
          (fun acc (_, s, _, _) -> Float.max acc (serial_seconds /. s))
          0. target_points
      in
      if not target_verifiable then begin
        Printf.printf
          "OVERSUBSCRIBED: only %d physical core(s); every multi-worker point exceeds the \
           machine, so the worker-speedup target cannot be verified on this host\n%!"
          physical_cores;
        if assert_enabled then begin
          Printf.eprintf
            "FAIL: CKPT_BENCH_ASSERT=1 but the sweep-worker target is unverifiable (%d \
             physical cores < 2)\n%!"
            physical_cores;
          exit 1
        end
      end
      else begin
        Printf.printf "best multi-worker speedup: %.2fx (target 1.3x)\n%!" best_speedup;
        if best_speedup < 1.3 then begin
          if assert_enabled then begin
            Printf.eprintf "FAIL: sweep workers below the 1.3x speedup target\n%!";
            exit 1
          end
          else
            Printf.printf "WARNING: below the 1.3x target (CKPT_BENCH_ASSERT=1 enforces)\n%!"
        end
      end;
      let units_total =
        match runs with (_, _, units, _) :: _ -> units | [] -> 0
      in
      let curve_json =
        String.concat ",\n"
          (List.map
             (fun (workers, seconds, units, _) ->
               Printf.sprintf
                 "    { \"workers\": %d, \"seconds\": %.6f, \"units_per_sec\": %.3f, \
                  \"speedup\": %.3f, \"oversubscribed\": %b }"
                 workers seconds
                 (float_of_int units /. seconds)
                 (serial_seconds /. seconds)
                 (oversubscribed workers))
             runs)
      in
      let oversubscribed_workers =
        List.filter_map
          (fun (w, _, _, _) -> if oversubscribed w then Some (string_of_int w) else None)
          runs
      in
      write_bench_json ~path:"BENCH_sweep.json"
        ~meta:
          [
            ("bench", "sweep-workers");
            ("physical_cores", string_of_int physical_cores);
            ("worker_counts",
             String.concat "," (List.map string_of_int sweep_worker_counts));
            ("oversubscribed_worker_counts", String.concat "," oversubscribed_workers);
          ]
        (Printf.sprintf
           "{\n\
           \  \"bench\": \"sweep-workers\",\n\
           \  \"experiment\": \"sweep-smoke\",\n\
           \  \"replicates\": %d,\n\
           \  \"stripe\": %d,\n\
           \  \"units\": %d,\n\
           \  \"physical_cores\": %d,\n\
           \  \"curve\": [\n\
            %s\n\
           \  ],\n\
           \  \"best_speedup_at_2plus\": %.3f,\n\
           \  \"target_verifiable\": %b,\n\
           \  \"byte_identical\": true\n\
            }\n"
           traces sweep_bench_stripe units_total physical_cores curve_json best_speedup
           target_verifiable);
      rm_rf base

let () =
  let baselines = solver_baselines () in
  let stages =
    [
      ("experiments", run_experiments);
      ("micro", run_micro);
      ("eval", run_eval_bench);
      ("telemetry", run_telemetry_bench);
      ("solver", run_solver_bench ~baselines);
      ("engine", run_engine_bench);
      ("sweep", run_sweep_bench);
    ]
  in
  let selected = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun name ->
      if not (List.mem_assoc name stages) then begin
        Printf.eprintf "bench: unknown stage %S (stages: %s)\n%!" name
          (String.concat " " (List.map fst stages));
        exit 2
      end)
    selected;
  (* Long bench runs are natural sampler customers: with
     CKPT_METRICS_INTERVAL set the trajectory of every stage lands in
     the JSONL series; a no-op otherwise. *)
  T.Metrics_export.ensure_sampler ();
  List.iter
    (fun (name, run) -> if selected = [] || List.mem name selected then run ())
    stages
