(* Bechamel micro-benchmarks: bench/main.exe takes no argument.

   One Test.make per paper artifact, timing the computational kernel
   that artifact leans on (plus the core kernels: Lambert W, Bouguerra's
   period search, the DPNextFailure and DPMakespan solves), at
   miniature scale so the whole suite completes in seconds.
   It times kernels no end-to-end workload isolates and gates nothing;
   the repo's performance trajectory is bench/e2e (see its README). *)

open Bechamel
open Toolkit
module D = Ckpt_distributions
module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator
module F = Ckpt_failures
module C = Ckpt_core

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

let () =
  print_endline "=== Bechamel micro-benchmarks (one per artifact + core kernels) ===";
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
