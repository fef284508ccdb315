(* Engine algebra tests (hand-checked executions), simulator
   invariants, evaluation methodology, period search and energy. *)

module Engine = Ckpt_simulator.Engine
module Scenario = Ckpt_simulator.Scenario
module Evaluation = Ckpt_simulator.Evaluation
module Period_search = Ckpt_simulator.Period_search
module Energy = Ckpt_simulator.Energy
module Makespan_vs_p = Ckpt_experiments.Makespan_vs_p
module Policy = Ckpt_policies.Policy
module Job = Ckpt_policies.Job
module Trace = Ckpt_failures.Trace
module Trace_set = Ckpt_failures.Trace_set
module Machine = Ckpt_platform.Machine
module Overhead = Ckpt_platform.Overhead
module Exponential = Ckpt_distributions.Exponential
module Weibull = Ckpt_distributions.Weibull
module Metrics = Ckpt_telemetry.Metrics
module Tracer = Ckpt_telemetry.Tracer

let check = Alcotest.check
let close ?(tol = 1e-6) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

(* A tiny deterministic setting: W = 1000 s, C = R = 100 s, D = 50 s. *)
let tiny_job ?(processors = 1) () =
  Job.create
    ~dist:(Exponential.of_mtbf ~mtbf:5000.)
    ~processors
    ~machine:
      (Machine.create ~total_processors:processors ~downtime:50.
         ~overhead:(Overhead.constant 100.))
    ~work_time:1000.

let tiny_scenario ?(processors = 1) () =
  Scenario.create ~horizon:1e6 ~start_time:0. (tiny_job ~processors ())

let traces_of_failures ~units failures =
  Trace_set.of_traces
    (Array.init units (fun i ->
         Trace.of_times ~horizon:1e6 (Array.of_list (List.assoc i failures))))

let period600 = Policy.periodic "periodic-600" ~period:600.

let run_metrics ?(processors = 1) ~failures policy =
  let scenario = tiny_scenario ~processors () in
  let traces = traces_of_failures ~units:processors failures in
  match Engine.run ~scenario ~traces ~policy () with
  | Engine.Completed m -> m
  | Engine.Policy_failed _ -> Alcotest.fail "unexpected policy failure"

(* -- hand-checked executions ----------------------------------------------- *)

let test_engine_no_failures () =
  let m = run_metrics ~failures:[ (0, []) ] period600 in
  (* Chunks 600 and 400, each plus C = 100. *)
  close "makespan" 1200. m.Engine.makespan;
  close "useful" 1000. m.Engine.useful_work;
  close "checkpoint" 200. m.Engine.checkpoint_time;
  close "no waste" 0. m.Engine.wasted_time;
  check Alcotest.int "no failures" 0 m.Engine.failures;
  check Alcotest.int "two chunks" 2 m.Engine.chunks;
  close "min chunk" 400. m.Engine.min_chunk;
  close "max chunk" 600. m.Engine.max_chunk

let test_engine_single_failure_mid_chunk () =
  (* Failure at t = 300 during the first chunk (0..700):
     waste 300, downtime 50, recovery 100, then 700 + 500. *)
  let m = run_metrics ~failures:[ (0, [ 300. ]) ] period600 in
  close "makespan" 1650. m.Engine.makespan;
  close "wasted" 300. m.Engine.wasted_time;
  close "stall" 50. m.Engine.stall_time;
  close "recovery" 100. m.Engine.recovery_time;
  close "useful" 1000. m.Engine.useful_work;
  check Alcotest.int "one failure" 1 m.Engine.failures

let test_engine_failure_during_checkpoint () =
  (* Failure at t = 650 hits the checkpoint of the first chunk. *)
  let m = run_metrics ~failures:[ (0, [ 650. ]) ] period600 in
  close "wasted includes partial checkpoint" 650. m.Engine.wasted_time;
  close "makespan" (650. +. 50. +. 100. +. 700. +. 500.) m.Engine.makespan

let test_engine_failure_at_commit_instant () =
  (* A failure at exactly t = 700 does not destroy the checkpoint that
     commits at 700; it strikes the next attempt at zero cost. *)
  let m = run_metrics ~failures:[ (0, [ 700. ]) ] period600 in
  close "nothing wasted" 0. m.Engine.wasted_time;
  close "makespan" (700. +. 50. +. 100. +. 500.) m.Engine.makespan;
  check Alcotest.int "one failure" 1 m.Engine.failures

let test_engine_failure_during_recovery () =
  (* Failures at 300 and 400: the second interrupts the recovery that
     started at 350. *)
  let m = run_metrics ~failures:[ (0, [ 300.; 400. ]) ] period600 in
  check Alcotest.int "two failures" 2 m.Engine.failures;
  close "wasted" 300. m.Engine.wasted_time;
  close "stall" 100. m.Engine.stall_time;
  close "recovery (interrupted + complete)" 150. m.Engine.recovery_time;
  close "makespan" 1750. m.Engine.makespan

let test_engine_own_downtime_absorbs () =
  (* The processor's own failure at 320 falls inside its downtime
     [300, 350): absorbed, identical to a single failure at 300. *)
  let m = run_metrics ~failures:[ (0, [ 300.; 320. ]) ] period600 in
  check Alcotest.int "one effective failure" 1 m.Engine.failures;
  close "makespan" 1650. m.Engine.makespan;
  (* A failure exactly when the downtime ends [350] is a new one: it
     aborts the recovery starting at that instant. *)
  let m = run_metrics ~failures:[ (0, [ 300.; 350. ]) ] period600 in
  check Alcotest.int "boundary failure is effective" 2 m.Engine.failures;
  close "makespan with the second downtime" 1700. m.Engine.makespan

let test_engine_cascading_downtime () =
  (* Two units; unit 1 fails at 330 while unit 0 is down [300, 350):
     the platform is whole again only at 380. *)
  let m = run_metrics ~processors:2 ~failures:[ (0, [ 300. ]); (1, [ 330. ]) ] period600 in
  check Alcotest.int "two failures" 2 m.Engine.failures;
  close "stall to the latest downtime" 80. m.Engine.stall_time;
  close "makespan" 1680. m.Engine.makespan

let test_engine_grouped_units_equivalent () =
  (* A 4-processor job whose failures strike whole 4-processor nodes
     behaves exactly like a 1-processor job with the same work and the
     same (single-unit) trace: grouping only changes the C(p) scaling,
     which is constant here. *)
  let grouped = Job.with_group_size (tiny_job ~processors:4 ()) 4 in
  let scenario_grouped = Scenario.create ~horizon:1e6 ~start_time:0. grouped in
  let scenario_single = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, [ 300.; 1900. ]) ] in
  let a = Engine.run ~scenario:scenario_grouped ~traces ~policy:period600 () in
  let b = Engine.run ~scenario:scenario_single ~traces ~policy:period600 () in
  check Alcotest.bool "identical executions" true (a = b)

let test_engine_policy_failed () =
  let declining = Policy.stateless "no" (fun _ -> None) in
  let scenario = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, []) ] in
  match Engine.run ~scenario ~traces ~policy:declining () with
  | Engine.Policy_failed { at_time; remaining } ->
      close "at start" 0. at_time;
      close "nothing done" 1000. remaining
  | Engine.Completed _ -> Alcotest.fail "expected Policy_failed"

let test_engine_zero_chunk_policy_terminates () =
  (* A degenerate policy proposing zero-size chunks must not loop: the
     engine coerces the proposal to the full remaining work. *)
  let zero = Policy.stateless "zero" (fun _ -> Some 0.) in
  let m = run_metrics ~failures:[ (0, []) ] zero in
  close "single coerced chunk" 1100. m.Engine.makespan;
  check Alcotest.int "one chunk" 1 m.Engine.chunks

let test_engine_oversized_chunk_clamped () =
  let greedy = Policy.stateless "greedy" (fun _ -> Some 1e12) in
  let m = run_metrics ~failures:[ (0, []) ] greedy in
  close "clamped to the work" 1100. m.Engine.makespan

let test_engine_deterministic () =
  let scenario = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, [ 123.; 2345. ]) ] in
  let m1 = Engine.run ~scenario ~traces ~policy:period600 () in
  let m2 = Engine.run ~scenario ~traces ~policy:period600 () in
  check Alcotest.bool "identical outcomes" true (m1 = m2)

(* -- lower bound -------------------------------------------------------------- *)

let test_lower_bound_no_failures () =
  let scenario = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, []) ] in
  let m = Engine.lower_bound ~scenario ~traces () in
  close "one chunk + C" 1100. m.Engine.makespan;
  check Alcotest.int "single chunk" 1 m.Engine.chunks

let test_lower_bound_just_in_time () =
  (* Failure at 300: save 200 s of work with the checkpoint committing
     exactly at the failure, then downtime + recovery + the rest. *)
  let scenario = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, [ 300. ]) ] in
  let m = Engine.lower_bound ~scenario ~traces () in
  close "no execution wasted" 0. m.Engine.wasted_time;
  close "makespan" (300. +. 50. +. 100. +. 800. +. 100.) m.Engine.makespan

let test_lower_bound_idle_when_too_close () =
  (* Failure at 60 < C: nothing can be saved; idle until it strikes. *)
  let scenario = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, [ 60. ]) ] in
  let m = Engine.lower_bound ~scenario ~traces () in
  close "idle time wasted" 60. m.Engine.wasted_time;
  close "makespan" (60. +. 50. +. 100. +. 1000. +. 100.) m.Engine.makespan

let test_lower_bound_beats_policies () =
  let job =
    Job.create
      ~dist:(Exponential.of_mtbf ~mtbf:3000.)
      ~processors:4
      ~machine:
        (Machine.create ~total_processors:4 ~downtime:50. ~overhead:(Overhead.constant 100.))
      ~work_time:20_000.
  in
  let scenario = Scenario.create ~horizon:1e7 ~start_time:0. job in
  for replicate = 0 to 9 do
    let traces = Scenario.traces scenario ~replicate in
    let lb = Engine.lower_bound ~scenario ~traces () in
    List.iter
      (fun period ->
        match Engine.run ~scenario ~traces ~policy:(Policy.periodic "p" ~period) () with
        | Engine.Completed m ->
            check Alcotest.bool
              (Printf.sprintf "lb %.0f <= %.0f (T=%g, r=%d)" lb.Engine.makespan
                 m.Engine.makespan period replicate)
              true
              (lb.Engine.makespan <= m.Engine.makespan +. 1e-6)
        | Engine.Policy_failed _ -> Alcotest.fail "periodic cannot fail")
      [ 300.; 1000.; 5000. ]
  done

(* -- invariants (property) ------------------------------------------------------ *)

(* Shared by the Exponential and Weibull instances below: the metrics
   partition the makespan, and a traced run's span durations produce
   the very same partition. *)
let partition_prop ~name ~dist =
  QCheck2.Test.make ~name ~count:60
    QCheck2.Gen.(pair (int_range 0 10_000) (float_range 200. 3000.))
    (fun (replicate, period) ->
      let scenario =
        Scenario.create ~horizon:1e7 ~start_time:0.
          (Job.create ~dist ~processors:2
             ~machine:
               (Machine.create ~total_processors:2 ~downtime:40.
                  ~overhead:(Overhead.constant 120.))
             ~work_time:15_000.)
      in
      let traces = Scenario.traces scenario ~replicate in
      let buf = Tracer.create_buffer ~name:"prop" () in
      match Engine.run ~trace:buf ~scenario ~traces ~policy:(Policy.periodic "p" ~period) () with
      | Engine.Completed m ->
          let parts =
            m.Engine.useful_work +. m.Engine.checkpoint_time +. m.Engine.wasted_time
            +. m.Engine.recovery_time +. m.Engine.stall_time
          in
          let t = Tracer.totals buf in
          let spans =
            t.Tracer.work +. t.Tracer.checkpoint +. t.Tracer.waste +. t.Tracer.recovery
            +. t.Tracer.downtime
          in
          abs_float (m.Engine.makespan -. parts) < 1e-6 *. m.Engine.makespan
          && abs_float (m.Engine.useful_work -. 15_000.) < 1e-6
          && abs_float (m.Engine.makespan -. spans) < 1e-6 *. m.Engine.makespan
          && t.Tracer.failures = m.Engine.failures
          && t.Tracer.chunks = m.Engine.chunks
      | Engine.Policy_failed _ -> false)

let prop_metrics_partition =
  partition_prop ~name:"makespan = useful + C + wasted + recovery + stall (exponential)"
    ~dist:(Exponential.of_mtbf ~mtbf:2500.)

let prop_metrics_partition_weibull =
  partition_prop ~name:"makespan partition and traced spans (weibull k=0.7)"
    ~dist:(Weibull.of_mtbf ~mtbf:2500. ~shape:0.7)

(* -- scenario --------------------------------------------------------------------- *)

let test_scenario_defaults () =
  let single = Scenario.create (tiny_job ()) in
  close ~tol:1. "1-proc horizon 1 y" (365.25 *. 86400.) single.Scenario.horizon;
  close "1-proc starts at 0" 0. single.Scenario.start_time;
  let parallel = Scenario.create (tiny_job ~processors:4 ()) in
  close ~tol:1. "parallel horizon 11 y" (11. *. 365.25 *. 86400.) parallel.Scenario.horizon;
  close ~tol:1. "parallel starts at 1 y" (365.25 *. 86400.) parallel.Scenario.start_time

let test_scenario_invalid () =
  Alcotest.check_raises "start past horizon"
    (Invalid_argument "Scenario.create: start_time outside [0, horizon)") (fun () ->
      ignore (Scenario.create ~horizon:10. ~start_time:10. (tiny_job ())))

let test_scenario_grouped_traces () =
  let job = Job.with_group_size (tiny_job ~processors:8 ()) 4 in
  let scenario = Scenario.create ~horizon:1e6 ~start_time:0. job in
  let traces = Scenario.traces scenario ~replicate:0 in
  check Alcotest.int "one trace per node" 2 (Trace_set.processors traces)

let test_initial_lifetime_starts () =
  let scenario = Scenario.create ~horizon:1e6 ~start_time:500. (tiny_job ()) in
  let traces = traces_of_failures ~units:1 [ (0, [ 100.; 400.; 800. ]) ] in
  let starts = Scenario.initial_lifetime_starts scenario traces in
  (* Last failure before 500 is 400; lifetime restarts after the
     downtime D = 50. *)
  close "last failure + D" 450. starts.(0);
  let fresh = Scenario.initial_lifetime_starts scenario (traces_of_failures ~units:1 [ (0, []) ]) in
  close "never failed" 0. fresh.(0)

(* -- evaluation ---------------------------------------------------------------------- *)

let eval_scenario () =
  Scenario.create ~horizon:1e7 ~start_time:0.
    (Job.create
       ~dist:(Exponential.of_mtbf ~mtbf:4000.)
       ~processors:1
       ~machine:
         (Machine.create ~total_processors:1 ~downtime:50. ~overhead:(Overhead.constant 100.))
       ~work_time:20_000.)

let test_evaluation_degradations () =
  let scenario = eval_scenario () in
  let policies =
    [ Policy.periodic "a" ~period:900.; Policy.periodic "b" ~period:2000.;
      Policy.periodic "c" ~period:8000. ]
  in
  let table = Evaluation.degradation_table ~scenario ~policies ~replicates:10 in
  check Alcotest.int "usable" 10 table.Evaluation.usable_replicates;
  List.iter
    (fun r ->
      check Alcotest.int (r.Evaluation.policy_name ^ " ran everywhere") 10
        r.Evaluation.successes;
      check Alcotest.bool
        (Printf.sprintf "%s degradation %.3f >= 1" r.Evaluation.policy_name
           r.Evaluation.average_degradation)
        true
        (r.Evaluation.average_degradation >= 1. -. 1e-9))
    table.Evaluation.results;
  check Alcotest.bool "lower bound <= 1" true
    (table.Evaluation.lower_bound.Evaluation.average_degradation <= 1. +. 1e-9)

let test_evaluation_failed_policy_excluded () =
  let scenario = eval_scenario () in
  let policies = [ Policy.periodic "ok" ~period:1000.; Policy.stateless "no" (fun _ -> None) ] in
  let table = Evaluation.degradation_table ~scenario ~policies ~replicates:4 in
  let failed = List.nth table.Evaluation.results 1 in
  check Alcotest.int "no successes" 0 failed.Evaluation.successes;
  let ok = List.nth table.Evaluation.results 0 in
  close ~tol:1e-9 "sole policy defines the best" 1. ok.Evaluation.average_degradation

(* One policy's mean makespan, stepped a stripe at a time. *)
let mean_makespan ~scenario ~policy ~replicates =
  Option.map fst
    (Makespan_vs_p.policy_makespan ~experiment:"test" ~scenario ~policy ~replicates ())

let test_average_makespan () =
  let scenario = eval_scenario () in
  match mean_makespan ~scenario ~policy:(Policy.periodic "p" ~period:1000.) ~replicates:5 with
  | Some m -> check Alcotest.bool "at least the work" true (m >= 20_000.)
  | None -> Alcotest.fail "periodic always completes"

let with_domains n f =
  (* [degradation_table] reads CKPT_DOMAINS through
     [Domain_pool.recommended_domains] on every call. *)
  let previous = Sys.getenv_opt "CKPT_DOMAINS" in
  Unix.putenv "CKPT_DOMAINS" (string_of_int n);
  Fun.protect f ~finally:(fun () ->
      Unix.putenv "CKPT_DOMAINS" (match previous with Some v -> v | None -> ""))

let test_evaluation_parallel_deterministic () =
  (* The acceptance guarantee: the table at CKPT_DOMAINS=4 is
     bit-for-bit the table at CKPT_DOMAINS=1 — including a DP policy,
     whose solved tables are cached per domain. *)
  let policies () =
    [ Policy.periodic "a" ~period:900.; Policy.periodic "b" ~period:2000.;
      Ckpt_policies.Dp_policies.dp_makespan ~cap_states:40 (eval_scenario ()).Scenario.job ]
  in
  let table_with domains =
    with_domains domains (fun () ->
        Evaluation.degradation_table ~scenario:(eval_scenario ()) ~policies:(policies ())
          ~replicates:6)
  in
  let serial = table_with 1 in
  let parallel = table_with 4 in
  check Alcotest.bool "identical tables" true (serial = parallel);
  check Alcotest.string "identical rendering"
    (Format.asprintf "%a" Evaluation.pp_table serial)
    (Format.asprintf "%a" Evaluation.pp_table parallel);
  match
    with_domains 1 (fun () ->
        mean_makespan ~scenario:(eval_scenario ())
          ~policy:(Policy.periodic "p" ~period:1000.) ~replicates:5),
    with_domains 4 (fun () ->
        mean_makespan ~scenario:(eval_scenario ())
          ~policy:(Policy.periodic "p" ~period:1000.) ~replicates:5)
  with
  | Some a, Some b -> close ~tol:0. "average_makespan deterministic" a b
  | _ -> Alcotest.fail "periodic always completes"

let with_env key value f =
  let previous = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv key (match previous with Some v -> v | None -> ""))

let test_engine_fast_paths_bit_identical () =
  (* The DPNextFailure fast paths — incremental age summaries and the
     branch-and-bound chunk-scan prune — must not change a single bit
     of any execution against the [~reference:true] policy, which
     rebuilds every summary and scans exhaustively. *)
  let job =
    Job.create
      ~dist:(Weibull.of_mtbf ~mtbf:1e6 ~shape:0.7)
      ~processors:64
      ~machine:
        (Machine.create ~total_processors:64 ~downtime:60. ~overhead:(Overhead.constant 600.))
      ~work_time:5e5
  in
  let scenario = Scenario.create ~horizon:1e7 ~start_time:0. job in
  let run ~reference =
    let policy = Ckpt_policies.Dp_policies.dp_next_failure ~max_states:60 ~reference job in
    List.map
      (fun replicate ->
        Engine.run ~scenario ~traces:(Scenario.traces scenario ~replicate) ~policy ())
      [ 0; 1; 2 ]
  in
  let fast = run ~reference:false in
  let slow = run ~reference:true in
  check Alcotest.bool "fast paths change nothing" true (fast = slow)

(* A deliberately skewed study x replicate nest: fewer configurations
   than domains, with per-point cost growing ~8x across the sweep.
   Stripes of 4 give each point's 8 replicates a two-stripe fan-out, a
   region nested inside the study's, so the widest point finishes while
   the other domains help it. *)
let skewed_study_tables () =
  let weibull = Weibull.of_mtbf ~mtbf:(Ckpt_platform.Units.of_years 125.) ~shape:0.7 in
  with_env "CKPT_SWEEP_STRIPE" "4" @@ fun () ->
  Ckpt_parallel.Domain_pool.parallel_map_list
    (fun processors ->
      let job =
        Job.create ~dist:weibull ~processors
          ~machine:
            (Machine.create ~total_processors:processors ~downtime:60.
               ~overhead:(Overhead.constant 600.))
          ~work_time:(Ckpt_platform.Units.of_years 1000. /. float_of_int processors)
      in
      let policies =
        Ckpt_policies.[ Young.policy job; Daly.high job; Optexp.policy job ]
      in
      Evaluation.degradation_table ~scenario:(Scenario.create job) ~policies ~replicates:8)
    [ 512; 512; 1024; 1024; 2048; 4096 ]

let test_evaluation_steal_scheduler_deterministic () =
  (* Regression for the pool: the full evaluation determinism suite
     must produce the exact sequential-reference table (CKPT_DOMAINS=1,
     every region inline) at every domain count — including a DP
     policy, whose solved tables are cached per (persistent) domain,
     and a skewed nested study whose replicate regions run inside the
     study's own fan-out. *)
  let policies () =
    [ Policy.periodic "a" ~period:900.; Policy.periodic "b" ~period:2000.;
      Ckpt_policies.Dp_policies.dp_makespan ~cap_states:40 (eval_scenario ()).Scenario.job ]
  in
  let table_with ~domains =
    with_domains domains (fun () ->
        Evaluation.degradation_table ~scenario:(eval_scenario ()) ~policies:(policies ())
          ~replicates:6)
  in
  let reference = table_with ~domains:1 in
  let study_reference = with_domains 1 skewed_study_tables in
  List.iter
    (fun domains ->
      let pooled = table_with ~domains in
      check Alcotest.bool
        (Printf.sprintf "CKPT_DOMAINS=%d == sequential reference" domains)
        true (pooled = reference);
      check Alcotest.string
        (Printf.sprintf "identical rendering at CKPT_DOMAINS=%d" domains)
        (Format.asprintf "%a" Evaluation.pp_table reference)
        (Format.asprintf "%a" Evaluation.pp_table pooled);
      if domains > 1 then
        check Alcotest.bool
          (Printf.sprintf "skewed nested study at CKPT_DOMAINS=%d == sequential reference"
             domains)
          true
          (with_domains domains skewed_study_tables = study_reference))
    [ 1; 2; 8 ]

let contains_substring haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_evaluation_no_nan_printed () =
  let scenario = eval_scenario () in
  let never = Policy.stateless "never" (fun _ -> None) in
  (* One policy fails on every replicate, and (second table) every
     policy fails, so even the LowerBound row has no observations. *)
  List.iter
    (fun policies ->
      let table = Evaluation.degradation_table ~scenario ~policies ~replicates:3 in
      check Alcotest.bool "the failing policy really has no successes" true
        (List.exists (fun r -> r.Evaluation.successes = 0) table.Evaluation.results);
      let rendered = Format.asprintf "%a" Evaluation.pp_table table in
      check Alcotest.bool
        (Printf.sprintf "no nan in %S" rendered)
        false
        (contains_substring (String.lowercase_ascii rendered) "nan");
      check Alcotest.bool "absent cells print n/a" true (contains_substring rendered "n/a"))
    [ [ Policy.periodic "ok" ~period:1000.; never ]; [ never ] ]

(* Bit-level equality of two trace sets' merged event streams. *)
let check_same_events label a b =
  let bits events =
    Array.map (fun (date, proc) -> (Int64.bits_of_float date, proc)) (Trace_set.events events)
  in
  check Alcotest.bool label true (bits a = bits b)

let weibull_scenario () =
  Scenario.create
    (Job.create
       ~dist:(Weibull.of_mtbf ~mtbf:20_000. ~shape:0.7)
       ~processors:6
       ~machine:
         (Machine.create ~total_processors:6 ~downtime:50. ~overhead:(Overhead.constant 100.))
       ~work_time:20_000.)

let test_traces_pure () =
  (* A trace set is a pure function of (seed, replicate): asking twice,
     or asking a fresh scenario, regenerates the same bits. *)
  let scenario = weibull_scenario () in
  let a = Scenario.traces scenario ~replicate:3 in
  check Alcotest.bool "non-trivial" true (Array.length (Trace_set.events a) > 0);
  check_same_events "second call" a (Scenario.traces scenario ~replicate:3);
  check_same_events "fresh scenario" a (Scenario.traces (weibull_scenario ()) ~replicate:3);
  check Alcotest.bool "other replicate differs" false
    (Trace_set.events a = Trace_set.events (Scenario.traces scenario ~replicate:4))

let test_trace_sets_block () =
  (* The block builder is per-replicate [traces] and
     [initial_lifetime_starts], bit for bit, for an evaluation stripe
     and for the period search's tuning range. *)
  let scenario = weibull_scenario () in
  List.iter
    (fun first ->
      let len = 5 in
      let sets, births = Scenario.trace_sets scenario ~first ~len in
      check Alcotest.int "sets" len (Array.length sets);
      check Alcotest.int "births" len (Array.length births);
      Array.iteri
        (fun i set ->
          let replicate = first + i in
          let alone = Scenario.traces scenario ~replicate in
          check_same_events (Printf.sprintf "replicate %d" replicate) alone set;
          check Alcotest.bool
            (Printf.sprintf "replicate %d births" replicate)
            true
            (Array.map Int64.bits_of_float births.(i)
            = Array.map Int64.bits_of_float (Scenario.initial_lifetime_starts scenario alone)))
        sets)
    [ 0; Period_search.tuning_offset ]

let test_evaluation_invalid () =
  Alcotest.check_raises "no policies"
    (Invalid_argument "Evaluation.degradation_table: no policies") (fun () ->
      ignore (Evaluation.degradation_table ~scenario:(eval_scenario ()) ~policies:[] ~replicates:1))

(* -- period search -------------------------------------------------------------------- *)

let test_default_factors () =
  let factors = Period_search.default_factors () in
  check Alcotest.bool "all positive" true (List.for_all (fun f -> f > 0.) factors);
  check Alcotest.bool "sorted" true (List.sort compare factors = factors);
  check Alcotest.bool "covers an order of magnitude both ways" true
    (List.hd factors < 0.1 && List.nth factors (List.length factors - 1) > 10.)

let test_best_period_sane () =
  let scenario = eval_scenario () in
  let period, score =
    Period_search.best_period ~factors:[ 0.25; 1.; 4. ] ~tuning_replicates:4 ~scenario
      ~base_period:1000. ()
  in
  check Alcotest.bool "one of the candidates" true
    (List.exists (fun f -> abs_float (period -. (1000. *. f)) < 1e-6) [ 0.25; 1.; 4. ]);
  check Alcotest.bool "score finite" true (Float.is_finite score)

let test_best_period_fallback_not_zero () =
  let scenario = eval_scenario () in
  (* Regression: with no usable tuning run every candidate scores
     infinity, and the search used to return period 0 — which
     [Policy.periodic] then refuses at every chunk.  It must fall back
     to the (clamped) base period instead. *)
  let period, score =
    Period_search.best_period ~tuning_replicates:0 ~scenario ~base_period:1000. ()
  in
  close ~tol:1e-9 "falls back to the base period" 1000. period;
  check Alcotest.bool "score reports the failure" true (score = infinity);
  (* Same fallback when the factor grid leaves no candidate in
     (0, work]. *)
  let period, score =
    Period_search.best_period ~factors:[ 1e12 ] ~tuning_replicates:2 ~scenario ~base_period:1000.
      ()
  in
  close ~tol:1e-9 "clamped base period when no factor fits" 1000. period;
  check Alcotest.bool "fallback candidate still scored" true (Float.is_finite score);
  (* A base period beyond the work is clamped to the work. *)
  let period, _ =
    Period_search.best_period ~tuning_replicates:0 ~scenario ~base_period:1e9 ()
  in
  close ~tol:1e-9 "clamped to work" scenario.Scenario.job.Job.work_time period

(* The PeriodVariation curve: the plain periodic policy's mean
   makespan at each period. *)
let test_sweep () =
  let scenario = eval_scenario () in
  List.iter
    (fun period ->
      match
        mean_makespan ~scenario ~policy:(Policy.periodic "periodic" ~period) ~replicates:3
      with
      | Some v -> check Alcotest.bool "finite" true (Float.is_finite v)
      | None -> Alcotest.fail "periodic always completes")
    [ 500.; 1000. ]

(* -- significance --------------------------------------------------------------------- *)

module Significance = Ckpt_simulator.Significance

let test_binomial_p_values () =
  close ~tol:1e-9 "0/10 split" (2. /. 1024.) (Significance.binomial_two_sided_p ~wins:0 ~losses:10);
  close ~tol:1e-9 "3/7 split" (2. *. 176. /. 1024.)
    (Significance.binomial_two_sided_p ~wins:3 ~losses:7);
  close ~tol:1e-9 "even split capped at 1" 1.
    (Significance.binomial_two_sided_p ~wins:5 ~losses:5);
  close ~tol:1e-9 "no data" 1. (Significance.binomial_two_sided_p ~wins:0 ~losses:0)

(* [a] against [b] on the same [replicates] trace sets, one stripe. *)
let compare_policies ~scenario ~a ~b ~replicates =
  let runs =
    Evaluation.stripe_runs ~scenario ~policies:[ a; b ] ~first:0 ~len:replicates ()
  in
  let makespan = function Engine.Completed m -> m.Engine.makespan | Engine.Policy_failed _ -> nan in
  Significance.of_makespans ~a:a.Policy.name ~b:b.Policy.name
    (Array.init replicates (fun i -> (makespan runs.(0).(i), makespan runs.(1).(i))))

let test_compare_policies_detects_dominance () =
  (* A sane period against a period twenty times the platform MTBF:
     the former must win essentially every paired trace. *)
  let scenario = eval_scenario () in
  let good = Policy.periodic "good" ~period:900. in
  let awful = Policy.periodic "awful" ~period:80_000. in
  let c = compare_policies ~scenario ~a:good ~b:awful ~replicates:12 in
  check Alcotest.int "all pairs usable" 12 c.Significance.paired_runs;
  check Alcotest.bool
    (Printf.sprintf "good wins %d/12" c.Significance.a_wins)
    true
    (c.Significance.a_wins >= 11);
  check Alcotest.bool "ratio below 1" true (c.Significance.mean_ratio < 1.);
  check Alcotest.bool
    (Printf.sprintf "significant (p = %.4f)" c.Significance.sign_test_p)
    true
    (c.Significance.sign_test_p < 0.01)

let test_compare_policy_with_itself () =
  let scenario = eval_scenario () in
  let p = Policy.periodic "p" ~period:1000. in
  let c = compare_policies ~scenario ~a:p ~b:p ~replicates:5 in
  check Alcotest.int "all ties" 5 c.Significance.ties;
  close ~tol:1e-9 "p = 1" 1. c.Significance.sign_test_p;
  close ~tol:1e-9 "ratio 1" 1. c.Significance.mean_ratio

let test_failed_runs_do_not_pair () =
  let c =
    Significance.of_makespans ~a:"a" ~b:"b" [| (1., 2.); (nan, 1.); (3., infinity); (4., 4.) |]
  in
  check Alcotest.int "two pairs" 2 c.Significance.paired_runs;
  check Alcotest.(pair int int) "a wins 1, ties 1" (1, 1) (c.Significance.a_wins, c.Significance.ties);
  close ~tol:0. "mean difference" (-0.5) c.Significance.mean_difference

(* -- energy -------------------------------------------------------------------------- *)

let test_energy_of_metrics () =
  let m = run_metrics ~failures:[ (0, [ 300. ]) ] period600 in
  let power = Energy.create ~compute:100. ~io:10. ~idle:1. in
  (* useful 1000 + wasted 300 computing, 200 + 100 I/O, 50 stalled. *)
  close "joules"
    ((100. *. 1300.) +. (10. *. 300.) +. (1. *. 50.))
    (Energy.of_metrics power ~processors:1 m);
  close "scales with processors"
    (2. *. Energy.of_metrics power ~processors:1 m)
    (Energy.of_metrics power ~processors:2 m)

let test_energy_invalid () =
  Alcotest.check_raises "negative power" (Invalid_argument "Energy.create: negative power")
    (fun () -> ignore (Energy.create ~compute:(-1.) ~io:0. ~idle:0.))

let test_energy_tradeoff_rows () =
  let scenario = eval_scenario () in
  let rows =
    Ckpt_experiments.Energy_study.tradeoff ~experiment:"test" ~scenario
      ~power:Energy.default_power ~periods:[ 500.; 2000. ] ~replicates:3 ()
  in
  check Alcotest.int "row per period" 2 (List.length rows);
  List.iter
    (fun p ->
      check Alcotest.bool "positive" true
        Ckpt_experiments.Energy_study.(p.average_makespan > 0. && p.average_energy > 0.))
    rows

(* -- theory vs simulation --------------------------------------------------- *)

let test_simulated_optexp_matches_theorem1 () =
  (* The strongest end-to-end check: the engine's mean makespan under
     the optimal periodic policy must reproduce Theorem 1's closed
     form (1 processor, Exponential, MTBF 1 day, W = 20 days). *)
  let mtbf = 86400. in
  let work = 20. *. 86400. in
  let job =
    Job.create
      ~dist:(Exponential.of_mtbf ~mtbf)
      ~processors:1
      ~machine:
        (Machine.create ~total_processors:1 ~downtime:60. ~overhead:(Overhead.constant 600.))
      ~work_time:work
  in
  let scenario = Scenario.create ~horizon:1e9 ~start_time:0. job in
  let policy = Ckpt_policies.Optexp.policy job in
  let n = 60 in
  let acc = ref 0. in
  for replicate = 0 to n - 1 do
    let traces = Scenario.traces scenario ~replicate in
    match Engine.run ~scenario ~traces ~policy () with
    | Engine.Completed m -> acc := !acc +. m.Engine.makespan
    | Engine.Policy_failed _ -> Alcotest.fail "periodic cannot fail"
  done;
  let simulated = !acc /. float_of_int n in
  let theory =
    Ckpt_core.Theory.optimal_expected_makespan ~rate:(1. /. mtbf) ~work ~checkpoint:600.
      ~recovery:600. ~downtime:60.
  in
  check Alcotest.bool
    (Printf.sprintf "simulated %.0f within 2%% of theory %.0f" simulated theory)
    true
    (abs_float (simulated -. theory) /. theory < 0.02)

(* -- progress-dependent costs (conclusion extension) ----------------------- *)

let test_cost_profile_constant_matches_run () =
  (* A profile that always returns the job's constant costs must
     reproduce Engine.run exactly. *)
  let scenario = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, [ 300.; 1900. ]) ] in
  let a = Engine.run ~scenario ~traces ~policy:period600 () in
  let b =
    Engine.run
      ~cost_profile:(fun ~progress:_ -> (100., 100.))
      ~scenario ~traces ~policy:period600 ()
  in
  check Alcotest.bool "identical" true (a = b)

let test_cost_profile_growing_cost () =
  (* C doubles at the end: with W = 1000 and period 600, the first
     checkpoint lands at progress 0.6 and the second at 1.0. *)
  let scenario = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, []) ] in
  let profile ~progress = ((if progress >= 1. then 200. else 100.), 100.) in
  match Engine.run ~cost_profile:profile ~scenario ~traces ~policy:period600 () with
  | Engine.Completed m ->
      close "checkpoint time reflects the profile" 300. m.Engine.checkpoint_time;
      close "makespan" 1300. m.Engine.makespan
  | Engine.Policy_failed _ -> Alcotest.fail "cannot fail"

let test_cost_profile_recovery_cost () =
  (* Failure at 300 with nothing committed: recovery is charged at
     progress 0, where the profile makes it 500. *)
  let scenario = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, [ 300. ]) ] in
  let profile ~progress = (100., if progress <= 0. then 500. else 100.) in
  match Engine.run ~cost_profile:profile ~scenario ~traces ~policy:period600 () with
  | Engine.Completed m ->
      close "expensive early recovery" 500. m.Engine.recovery_time;
      close "makespan" (300. +. 50. +. 500. +. 700. +. 500.) m.Engine.makespan
  | Engine.Policy_failed _ -> Alcotest.fail "cannot fail"

let test_cost_profile_recovery_at_committed_progress () =
  (* The first chunk commits 600/1000 of the work at t = 700; the
     failure at 900 must therefore pay the recovery priced at progress
     0.6, not at the in-flight position. *)
  let scenario = tiny_scenario () in
  let traces = traces_of_failures ~units:1 [ (0, [ 900. ]) ] in
  let profile ~progress = (100., if progress >= 0.5 then 300. else 100.) in
  match Engine.run ~cost_profile:profile ~scenario ~traces ~policy:period600 () with
  | Engine.Completed m ->
      close "recovery priced at committed progress" 300. m.Engine.recovery_time;
      close "wasted" 200. m.Engine.wasted_time;
      close "makespan" (900. +. 50. +. 300. +. 400. +. 100.) m.Engine.makespan
  | Engine.Policy_failed _ -> Alcotest.fail "cannot fail"

(* -- telemetry -------------------------------------------------------------- *)

let contains_sub ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Traced runs of [policy] on replicates 0-4 one at a time, then on
   replicates 0-2 as a 3-wide stripe with one buffer per slot: tracing
   lives in the stripe state, so every slot must reconcile, and each
   slot's event stream must equal its width-1 run's.  Returns
   [(replicate, buffer, outcome)] for every run. *)
let traced_inputs ?cost_profile ~scenario ~policy ~name () =
  let buffer r =
    Tracer.create_buffer ~name:(Printf.sprintf "rep%d/%s" r name) ()
  in
  let traces r = Scenario.traces scenario ~replicate:r in
  let single =
    List.init 5 (fun r ->
        let b = buffer r in
        (r, b, Engine.run ~trace:b ?cost_profile ~scenario ~traces:(traces r) ~policy ()))
  in
  let bufs = Array.init 3 buffer in
  let outcomes =
    Engine.run_stripe ~trace:bufs ?cost_profile ~scenario ~traces:(Array.init 3 traces) ~policy ()
  in
  let striped = List.init 3 (fun k -> (k, bufs.(k), outcomes.(k))) in
  List.iter2
    (fun (k, b, o) (_, b1, o1) ->
      check Alcotest.bool
        (Printf.sprintf "%s: stripe slot %d == width-1 run, events included" name k)
        true
        (o = o1 && Tracer.to_list b = Tracer.to_list b1))
    striped
    (List.filteri (fun i _ -> i < 3) single);
  single @ striped

(* The acceptance check for the tracing layer: a Weibull degradation
   run's traced spans must reconcile with [Engine.metrics] replicate
   by replicate, and the exported file must be Chrome trace_event
   JSON. *)
let test_traced_weibull_reconciles () =
  let job =
    Job.create
      ~dist:(Weibull.of_mtbf ~mtbf:2000. ~shape:0.7)
      ~processors:4
      ~machine:
        (Machine.create ~total_processors:4 ~downtime:40. ~overhead:(Overhead.constant 120.))
      ~work_time:20_000.
  in
  let scenario = Scenario.create ~horizon:1e8 ~start_time:0. job in
  let saw_failures = ref false in
  List.iteri
    (fun i (_, buf, outcome) ->
      match outcome with
      | Engine.Completed m ->
          let t = Tracer.totals buf in
          close "work spans = useful_work" m.Engine.useful_work t.Tracer.work;
          close "checkpoint spans = checkpoint_time" m.Engine.checkpoint_time t.Tracer.checkpoint;
          close "waste spans = wasted_time" m.Engine.wasted_time t.Tracer.waste;
          close "recovery spans = recovery_time" m.Engine.recovery_time t.Tracer.recovery;
          close "downtime spans = stall_time" m.Engine.stall_time t.Tracer.downtime;
          check Alcotest.int "failure count" m.Engine.failures t.Tracer.failures;
          check Alcotest.int "chunk count" m.Engine.chunks t.Tracer.chunks;
          if m.Engine.failures > 0 then saw_failures := true;
          if i = 0 then begin
            let path = Filename.temp_file "ckpt_weibull_trace" ".json" in
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                Tracer.write ~path buf;
                let ic = open_in_bin path in
                let body =
                  Fun.protect
                    ~finally:(fun () -> close_in_noerr ic)
                    (fun () -> really_input_string ic (in_channel_length ic))
                in
                check Alcotest.bool "chrome trace envelope" true
                  (contains_sub ~needle:"\"traceEvents\"" body);
                check Alcotest.bool "named execution thread" true
                  (contains_sub ~needle:"rep0/periodic-1000" body))
          end
      | Engine.Policy_failed _ -> Alcotest.fail "periodic cannot fail")
    (traced_inputs ~scenario ~policy:(Policy.periodic "p" ~period:1000.) ~name:"periodic-1000" ());
  check Alcotest.bool "at least one replicate saw failures" true !saw_failures

let weibull_scenario () =
  Scenario.create ~horizon:1e8 ~start_time:0.
    (Job.create
       ~dist:(Weibull.of_mtbf ~mtbf:2000. ~shape:0.7)
       ~processors:4
       ~machine:
         (Machine.create ~total_processors:4 ~downtime:40. ~overhead:(Overhead.constant 120.))
       ~work_time:20_000.)

(* Satellite of the waste-accounting layer: the progress-dependent-cost
   runs reconcile with the event stream too — and since
   Checkpoint/Recovery_complete events carry the engine's exact cost
   operand, the comparison is bitwise, not tolerance-based. *)
let test_traced_cost_profile_reconciles () =
  let scenario = weibull_scenario () in
  (* A genuinely varying profile so the exact-cost claim is exercised
     on values the constant-cost path never produces. *)
  let cost_profile ~progress = (120. +. (30. *. progress), 120. -. (20. *. progress)) in
  let saw_failures = ref false in
  List.iter
    (fun (_, buf, outcome) ->
      match outcome with
      | Engine.Completed m ->
          let t = Tracer.totals buf in
          let exact name a b =
            check Alcotest.bool (name ^ " bitwise") true
              (Int64.bits_of_float a = Int64.bits_of_float b)
          in
          exact "work" m.Engine.useful_work t.Tracer.work;
          exact "checkpoint" m.Engine.checkpoint_time t.Tracer.checkpoint;
          exact "waste" m.Engine.wasted_time t.Tracer.waste;
          exact "recovery" m.Engine.recovery_time t.Tracer.recovery;
          exact "downtime" m.Engine.stall_time t.Tracer.downtime;
          check Alcotest.int "failures" m.Engine.failures t.Tracer.failures;
          check Alcotest.int "chunks" m.Engine.chunks t.Tracer.chunks;
          if m.Engine.failures > 0 then saw_failures := true
      | Engine.Policy_failed _ -> Alcotest.fail "periodic cannot fail")
    (traced_inputs ~cost_profile ~scenario ~policy:(Policy.periodic "p" ~period:1000.)
       ~name:"cost" ());
  check Alcotest.bool "at least one replicate saw failures" true !saw_failures

(* -- explain ---------------------------------------------------------------- *)

module Explain = Ckpt_simulator.Explain

let hex_of_event = function
  | Tracer.Decision { at; chunk; remaining } -> Printf.sprintf "D %h %h %h" at chunk remaining
  | Tracer.Chunk_start { at; work } -> Printf.sprintf "S %h %h" at work
  | Tracer.Chunk_commit { t0; t1; work } -> Printf.sprintf "W %h %h %h" t0 t1 work
  | Tracer.Checkpoint { t0; t1; cost } -> Printf.sprintf "C %h %h %h" t0 t1 cost
  | Tracer.Failure { at; proc } -> Printf.sprintf "F %h %d" at proc
  | Tracer.Waste { t0; t1 } -> Printf.sprintf "X %h %h" t0 t1
  | Tracer.Downtime { t0; t1 } -> Printf.sprintf "T %h %h" t0 t1
  | Tracer.Recovery_start { at } -> Printf.sprintf "R %h" at
  | Tracer.Recovery_abort { t0; t1 } -> Printf.sprintf "A %h %h" t0 t1
  | Tracer.Recovery_complete { t0; t1; cost } -> Printf.sprintf "K %h %h %h" t0 t1 cost

let check_explained scenario =
  let policy = Policy.periodic "periodic-1000" ~period:1000. in
  let e = Explain.run ~scenario ~policy ~replicate:1 in
  check Alcotest.bool "decisions present" true (e.Explain.decisions <> []);
  check Alcotest.bool "reconciles bitwise" true (Explain.reconciles e);
  (* Every decision carries its rationale, and the
     rationale's numbers are sane at the observed ages. *)
  List.iter
    (fun d ->
      match d.Explain.rationale with
      | None -> Alcotest.fail "decision without rationale"
      | Some r ->
          (* Weibull with shape < 1 legitimately has infinite hazard at
             age zero; only nan and non-positive values are bugs. *)
          check Alcotest.bool "hazard positive (possibly infinite)" true
            ((not (Float.is_nan r.Ckpt_policies.Rationale.hazard))
            && r.Ckpt_policies.Rationale.hazard > 0.);
          check Alcotest.bool "commit probability in (0, 1]" true
            (r.Ckpt_policies.Rationale.commit_probability > 0.
            && r.Ckpt_policies.Rationale.commit_probability <= 1.);
          check Alcotest.bool "expected loss within window" true
            (Float.is_nan r.Ckpt_policies.Rationale.expected_loss
            || (r.Ckpt_policies.Rationale.expected_loss >= 0.
               && r.Ckpt_policies.Rationale.expected_loss
                  <= r.Ckpt_policies.Rationale.window)))
    e.Explain.decisions;
  (* The instrumented replay must not perturb the execution, nor the
     event stream that [ckpt explain -o] exports. *)
  let plain_buffer = Tracer.create_buffer ~name:"plain" () in
  let plain =
    Engine.run ~trace:plain_buffer ~scenario ~traces:(Scenario.traces scenario ~replicate:1)
      ~policy ()
  in
  check Alcotest.bool "replay bit-identical to plain run" true (plain = e.Explain.outcome);
  check
    Alcotest.(list string)
    "exported events bit-identical to plain run"
    (List.map hex_of_event (Tracer.to_list plain_buffer))
    (List.map hex_of_event (Tracer.to_list e.Explain.buffer));
  let rendered = Format.asprintf "%a" (Explain.print ~limit:5) e in
  check Alcotest.bool "footer reports exact reconciliation" true
    (contains_sub ~needle:"exact (bitwise)" rendered);
  check Alcotest.bool "footer reports the residual" true
    (contains_sub ~needle:"accounting residual" rendered)

let test_explain_weibull_reconciles () = check_explained (weibull_scenario ())

let test_explain_exponential_reconciles () =
  check_explained
    (Scenario.create ~horizon:1e8 ~start_time:0.
       (Job.create
          ~dist:(Exponential.of_mtbf ~mtbf:2000.)
          ~processors:4
          ~machine:
            (Machine.create ~total_processors:4 ~downtime:40.
               ~overhead:(Overhead.constant 120.))
          ~work_time:20_000.))

let test_explain_policy_failed () =
  let scenario = tiny_scenario () in
  let e =
    Explain.run ~scenario ~policy:(Policy.stateless "reject-all" (fun _ -> None)) ~replicate:0
  in
  (match e.Explain.declined with
  | Some (_, remaining) -> close "declined with all work left" 1000. remaining
  | None -> Alcotest.fail "expected a declined decision");
  check Alcotest.bool "never reconciles" false (Explain.reconciles e)

(* -- pinned engine digests ---------------------------------------------------

   Digests of exact ([%h]) outcomes recorded from the original
   one-execution-at-a-time engine loop, before the stripe became the
   only stepping loop.  They pin the failure model (downtime, cascades,
   recovery restarts), cost profiles, the lower bound, the event
   stream and the evaluation reduce to those bits, whatever the stripe
   width. *)

let hex_of_outcome = function
  | Engine.Completed m ->
      Printf.sprintf "C %h %h %h %h %h %h %d %d %h %h" m.Engine.makespan m.Engine.useful_work
        m.Engine.checkpoint_time m.Engine.wasted_time m.Engine.recovery_time
        m.Engine.stall_time m.Engine.failures m.Engine.chunks m.Engine.min_chunk
        m.Engine.max_chunk
  | Engine.Policy_failed { at_time; remaining } -> Printf.sprintf "F %h %h" at_time remaining

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Every cell of a degradation table, Welford columns included. *)
let hex_of_table (t : Evaluation.table) =
  let f = Printf.sprintf "%h" in
  let row (r : Evaluation.policy_result) =
    let profile =
      match r.Evaluation.profile with
      | None -> [ "none" ]
      | Some p ->
          List.map f
            [
              p.Evaluation.mk_p50; p.mk_p95; p.mk_p99; p.mk_mean; p.mk_ci95; p.deg_ci95;
              p.useful_s; p.checkpoint_s; p.wasted_s; p.recovery_s; p.stall_s; p.useful_frac;
              p.checkpoint_frac; p.wasted_frac; p.recovery_frac; p.stall_frac;
            ]
    in
    String.concat " "
      ((r.Evaluation.policy_name
       :: List.map f
            [ r.average_degradation; r.std_degradation; r.average_makespan; r.average_failures ])
      @ [ string_of_int r.successes; string_of_int r.max_failures ]
      @ List.map f [ r.average_chunks; r.min_chunk; r.max_chunk ]
      @ profile)
  in
  digest_lines
    (List.map row (t.Evaluation.lower_bound :: t.Evaluation.results)
    @ [ Printf.sprintf "%d %d" t.replicates t.usable_replicates ])

let pin_scenario ~dist ~start_time =
  Scenario.create ~horizon:1e7 ~start_time
    (Job.create ~dist ~processors:2
       ~machine:
         (Machine.create ~total_processors:2 ~downtime:40. ~overhead:(Overhead.constant 120.))
       ~work_time:15_000.)

let pin_cost_profile ~progress = (120. +. (30. *. progress), 120. -. (20. *. progress))

let pin_dists =
  [ ("exp", Exponential.of_mtbf ~mtbf:2500.); ("weibull", Weibull.of_mtbf ~mtbf:2500. ~shape:0.7) ]

(* [(label, policy, cost_profile?)]: periodic; a pure-scalar policy
   that declines after a recent failure in the second half of the work
   (some slots end as [Policy_failed] stragglers); a min-age policy; a
   stateful DP plan; periodic under a progress-dependent cost. *)
let pin_policies job =
  [
    ("periodic", Policy.periodic "p" ~period:1200., false);
    ( "quits",
      Policy.pure_scalar "quits" (fun obs ->
          if obs.Policy.remaining < 6000. && obs.Policy.min_age < 600. then None else Some 1500.),
      false );
    ( "agey",
      Policy.stateless "agey" (fun obs ->
          Some (Float.max 400. (1000. +. (0.1 *. obs.Policy.min_age)))),
      false );
    ("dpnf", Ckpt_policies.Dp_policies.dp_next_failure ~max_states:60 job, false);
    ("periodic+cost", Policy.periodic "p" ~period:1200., true);
  ]

let pin_replicates = 16

(* [dist/start_time/policy] -> digest of the outcomes on replicates
   0-15, in order ([LowerBound]: of the lower bound's metrics). *)
let pinned_outcomes =
  [
    ("exp/0/periodic", "f0c5ba89685256e7f90692ab7b08a92a");
    ("exp/0/quits", "59a6a0d71db3b0ca10b72ffb441871ae");
    ("exp/0/agey", "0c012f73d99a17cc7fa66af6b22b8264");
    ("exp/0/dpnf", "6c6e2efd176566f52a5e1b727edc7bdf");
    ("exp/0/periodic+cost", "382ad84a8046d1d471d647081c7a181e");
    ("exp/0/LowerBound", "d4aad01ca53849fca7debfacb8f1bd33");
    ("exp/2000/periodic", "235eb1a3ed51b146d748a7c29005c99e");
    ("exp/2000/quits", "359642cd2c18b516da252c205e3a6f23");
    ("exp/2000/agey", "5611af4d11cf49e84633914b3ef041c9");
    ("exp/2000/dpnf", "163865756d1cd34aa557fbc7b76894c9");
    ("exp/2000/periodic+cost", "92e3aeb4361578d32abba49740066f5d");
    ("exp/2000/LowerBound", "4a03593329a88519bdc49ccfa5c0aa63");
    ("weibull/0/periodic", "0927b0ecadc5fc5b1cbc3cac3db54165");
    ("weibull/0/quits", "1fbc22f8c9e69fd940b28489dd0d3b0a");
    ("weibull/0/agey", "5a33531029f96df1579166aa5b84c8ff");
    ("weibull/0/dpnf", "679792393719d02065d1ca4bc2873f42");
    ("weibull/0/periodic+cost", "cdab951e79975c9f6c7ff699ee318e54");
    ("weibull/0/LowerBound", "0e5dac340ca886b55e8e2bbcdde3ab61");
    ("weibull/2000/periodic", "df79aad15b1adc8d0400fc41a2a7973a");
    ("weibull/2000/quits", "6a9a1f7013dc2a61ba1bc6398ff37409");
    ("weibull/2000/agey", "2f876ba573f36d58f7eacaae955e4208");
    ("weibull/2000/dpnf", "f96629ad8d5c4e9a6eefec2e34e7aeb9");
    ("weibull/2000/periodic+cost", "86752f8c0cfa881e1b9506bb14d2494c");
    ("weibull/2000/LowerBound", "bcb508d2aa7edb726a08aec35831ae8f");
  ]

(* Weibull, start_time 2000, replicate 3: periodic-1200 under
   [pin_cost_profile], and the lower bound. *)
let pinned_traced_run = "679700001d495ba77e7e5072936bf445"
let pinned_traced_lower_bound = "c594f23f169a3a1f9955cf4b34937458"

(* [eval_scenario], roster a / b / DPMakespan, 9 replicates, by stripe
   width: the full table with every cell, at CKPT_DOMAINS=1. *)
let pinned_tables =
  [
    (1, "e5be4287c488975a1d2f58dbca95e2fc");
    (4, "e9e48c8fb216f3ef12a5a6b6c13b5a8c");
    (16, "e5be4287c488975a1d2f58dbca95e2fc");
  ]

(* Slot outcomes of [traces] in stripes of [width], in slot order. *)
let striped ~width ~scenario ~policy ?cost_profile traces =
  let n = Array.length traces in
  List.init ((n + width - 1) / width) (fun s ->
      let first = s * width in
      Engine.run_stripe ?cost_profile ~scenario
        ~traces:(Array.sub traces first (min width (n - first)))
        ~policy ())
  |> Array.concat

let test_pinned_outcomes () =
  let expect label digest =
    check Alcotest.string label (List.assoc label pinned_outcomes) digest
  in
  let digest outcomes = digest_lines (Array.to_list (Array.map hex_of_outcome outcomes)) in
  List.iter
    (fun (dname, dist) ->
      List.iter
        (fun start_time ->
          let scenario = pin_scenario ~dist ~start_time in
          let traces =
            Array.init pin_replicates (fun replicate -> Scenario.traces scenario ~replicate)
          in
          let cell = Printf.sprintf "%s/%g/%s" dname start_time in
          List.iter
            (fun (pname, policy, cost) ->
              let cost_profile = if cost then Some pin_cost_profile else None in
              let label = cell pname in
              expect label
                (digest
                   (Array.map
                      (fun tr -> Engine.run ?cost_profile ~scenario ~traces:tr ~policy ())
                      traces));
              List.iter
                (fun width ->
                  expect label (digest (striped ~width ~scenario ~policy ?cost_profile traces)))
                [ 3; 16 ])
            (pin_policies scenario.Scenario.job);
          expect (cell "LowerBound")
            (digest
               (Array.map
                  (fun tr -> Engine.Completed (Engine.lower_bound ~scenario ~traces:tr ()))
                  traces)))
        [ 0.; 2000. ])
    pin_dists

let test_pinned_event_streams () =
  let scenario = pin_scenario ~dist:(List.assoc "weibull" pin_dists) ~start_time:2000. in
  let traces r = Scenario.traces scenario ~replicate:r in
  let policy = Policy.periodic "p" ~period:1200. in
  let events b = digest_lines (List.map hex_of_event (Tracer.to_list b)) in
  let buf = Tracer.create_buffer ~name:"pin" () in
  ignore
    (Engine.run ~trace:buf ~cost_profile:pin_cost_profile ~scenario ~traces:(traces 3) ~policy ());
  check Alcotest.string "traced run" pinned_traced_run (events buf);
  (* The same trace set as the middle slot of a 3-wide traced stripe. *)
  let bufs =
    Array.init 3 (fun k -> Tracer.create_buffer ~name:(string_of_int k) ())
  in
  ignore
    (Engine.run_stripe ~trace:bufs ~cost_profile:pin_cost_profile ~scenario
       ~traces:(Array.init 3 (fun k -> traces (2 + k)))
       ~policy ());
  check Alcotest.string "traced stripe slot" pinned_traced_run (events bufs.(1));
  let buf = Tracer.create_buffer ~name:"pin-lb" () in
  ignore (Engine.lower_bound ~trace:buf ~scenario ~traces:(traces 3) ());
  check Alcotest.string "traced lower bound" pinned_traced_lower_bound (events buf)

(* -- waste profile golden table --------------------------------------------- *)

let test_profile_accounting_identity () =
  (* Every row of a degradation table carries a waste profile whose
     component means sum back to the mean makespan within the engine's
     accounting tolerance, whose quantiles are ordered, and whose
     fractions sum to 1. *)
  let scenario = eval_scenario () in
  let table =
    Evaluation.degradation_table ~scenario
      ~policies:[ Policy.periodic "a" ~period:900.; Policy.periodic "b" ~period:2000. ]
      ~replicates:8
  in
  List.iter
    (fun (r : Evaluation.policy_result) ->
      match r.Evaluation.profile with
      | None -> Alcotest.fail (r.Evaluation.policy_name ^ ": missing profile")
      | Some p ->
          let sum =
            p.Evaluation.useful_s +. p.Evaluation.checkpoint_s +. p.Evaluation.wasted_s
            +. p.Evaluation.recovery_s +. p.Evaluation.stall_s
          in
          check Alcotest.bool
            (Printf.sprintf "%s: components sum to mk_mean (%.17g vs %.17g)"
               r.Evaluation.policy_name sum p.Evaluation.mk_mean)
            true
            (abs_float (sum -. p.Evaluation.mk_mean) <= 1e-6 *. p.Evaluation.mk_mean);
          check Alcotest.bool "mk_mean agrees with average_makespan" true
            (abs_float (p.Evaluation.mk_mean -. r.Evaluation.average_makespan)
            <= 1e-6 *. p.Evaluation.mk_mean);
          check Alcotest.bool "quantiles ordered" true
            (p.Evaluation.mk_p50 <= p.Evaluation.mk_p95
            && p.Evaluation.mk_p95 <= p.Evaluation.mk_p99);
          let fracs =
            p.Evaluation.useful_frac +. p.Evaluation.checkpoint_frac
            +. p.Evaluation.wasted_frac +. p.Evaluation.recovery_frac
            +. p.Evaluation.stall_frac
          in
          close ~tol:1e-9 "fractions sum to 1" 1. fracs;
          check Alcotest.bool "ci half-width positive" true (p.Evaluation.mk_ci95 > 0.))
    (table.Evaluation.lower_bound :: table.Evaluation.results)

let test_profile_stripe_sched_bit_identity () =
  (* The tentpole determinism guarantee: the distributional profiles —
     exact sums and log histograms — reduce to the same bits at every
     stripe width, inline (CKPT_DOMAINS=1) and pooled.  (The scalar Welford
     columns are only stripe-invariant within one width — the Chan
     merge tree shape matters to their last bits, which is exactly why
     CKPT_SWEEP_STRIPE participates in the sweep-store key; the
     Vector-derived profiles are the stronger, width-free promise;
     the full table is pinned per width by the golden matrix.) *)
  let policies () =
    [ Policy.periodic "a" ~period:900.; Policy.periodic "b" ~period:2000.;
      Ckpt_policies.Dp_policies.dp_makespan ~cap_states:40 (eval_scenario ()).Scenario.job ]
  in
  let table_with ~stripe ~domains =
    with_env "CKPT_SWEEP_STRIPE" (string_of_int stripe) (fun () ->
        with_domains domains (fun () ->
            Evaluation.degradation_table ~scenario:(eval_scenario ()) ~policies:(policies ())
              ~replicates:9))
  in
  let profiles (t : Evaluation.table) =
    List.map
      (fun (r : Evaluation.policy_result) -> r.Evaluation.profile)
      (t.Evaluation.lower_bound :: t.Evaluation.results)
  in
  let reference = profiles (table_with ~stripe:16 ~domains:1) in
  check Alcotest.int "profiles present" 4 (List.length (List.filter_map Fun.id reference));
  List.iter
    (fun stripe ->
      List.iter
        (fun domains ->
          let t = table_with ~stripe ~domains in
          check Alcotest.bool
            (Printf.sprintf "stripe=%d domains=%d profiles == reference, bit for bit" stripe
               domains)
            true
            (compare reference (profiles t) = 0))
        [ 1; 2 ])
    [ 1; 4; 16 ]

let test_engine_matrix_bit_identity () =
  (* Golden matrix: the full degradation table (Welford columns
     included) at every CKPT_DOMAINS x stripe width combination equals
     the digest pinned from the scalar/sequential reference of the
     same stripe width — the retired per-execution engine survives as
     [pinned_tables], so the one stripe loop is held to its bits. *)
  let policies () =
    [ Policy.periodic "a" ~period:900.; Policy.periodic "b" ~period:2000.;
      Ckpt_policies.Dp_policies.dp_makespan ~cap_states:40 (eval_scenario ()).Scenario.job ]
  in
  let table_with ~domains ~stripe =
    with_domains domains (fun () ->
        with_env "CKPT_SWEEP_STRIPE" (string_of_int stripe) (fun () ->
            Evaluation.degradation_table ~scenario:(eval_scenario ()) ~policies:(policies ())
              ~replicates:9))
  in
  List.iter
    (fun stripe ->
      List.iter
        (fun domains ->
          check Alcotest.string
            (Printf.sprintf "domains=%d stripe=%d == scalar/seq reference" domains stripe)
            (List.assoc stripe pinned_tables)
            (hex_of_table (table_with ~domains ~stripe)))
        [ 1; 2 ])
    [ 1; 4; 16 ]

(* -- stripe engine ---------------------------------------------------------- *)

(* The stripe step under every study: at every stripe width, with and
   without a cost profile, each policy's outcomes equal a
   per-replicate [Engine.run] loop, bit for bit. *)
let test_stripe_runs_match_engine_run () =
  let scenario = eval_scenario () in
  let replicates = 9 in
  List.iter
    (fun cost_profile ->
      let policies =
        [
          Policy.periodic "a" ~period:900.;
          Ckpt_policies.Dp_policies.dp_next_failure ?cost_profile scenario.Scenario.job;
        ]
      in
      let reference =
        List.map
          (fun policy ->
            Array.init replicates (fun replicate ->
                Engine.run ?cost_profile ~scenario
                  ~traces:(Scenario.traces scenario ~replicate) ~policy ()))
          policies
      in
      List.iter
        (fun stripe ->
          with_env "CKPT_SWEEP_STRIPE" (string_of_int stripe) (fun () ->
              let stripes =
                Evaluation.map_stripes ~label:"test" ~replicates (fun ~stripe:_ ~first ~len ->
                    Evaluation.stripe_runs ?cost_profile ~scenario ~policies ~first ~len ())
              in
              List.iteri
                (fun j expected ->
                  check Alcotest.bool
                    (Printf.sprintf "stripe=%d profile=%b policy %d == Engine.run loop" stripe
                       (Option.is_some cost_profile) j)
                    true
                    (compare expected
                       (Array.concat (Array.to_list (Array.map (fun runs -> runs.(j)) stripes)))
                    = 0))
                reference))
        [ 1; 4; 16 ])
    [ None; Some pin_cost_profile ]

(* Every slot of [Engine.run_stripe] is exactly [Engine.run] on its
   own trace set — slots share no decisions or state, and the
   live-slot compaction disturbs none of them — across distributions,
   policy kinds (pure-scalar declining mid-run, min-age), stripe
   widths, and a nonzero start_time (exercising the initial-lifetime
   template).  The declining policy makes some slots finish as
   [Policy_failed] while others keep stepping: the straggler
   compaction path. *)
let prop_stripe_slot_equals_run =
  QCheck2.Test.make ~name:"run_stripe slot k == run on traces k (dist x policy x width)"
    ~count:40
    QCheck2.Gen.(quad (int_range 0 1) (int_range 0 2) (int_range 0 10_000) (int_range 0 2))
    (fun (dist_i, policy_i, replicate, width_i) ->
      let dist =
        if dist_i = 0 then Exponential.of_mtbf ~mtbf:2500.
        else Weibull.of_mtbf ~mtbf:2500. ~shape:0.7
      in
      let scenario =
        Scenario.create ~horizon:1e7
          ~start_time:(if replicate land 1 = 0 then 0. else 2000.)
          (Job.create ~dist ~processors:2
             ~machine:
               (Machine.create ~total_processors:2 ~downtime:40.
                  ~overhead:(Overhead.constant 120.))
             ~work_time:15_000.)
      in
      let policy =
        match policy_i with
        | 0 -> Policy.periodic "p" ~period:1200.
        | 1 ->
            Policy.pure_scalar "quits" (fun obs ->
                if obs.Policy.remaining < 6000. then None else Some 1500.)
        | _ ->
            (* The decision depends on min_age, so observations
               genuinely vary across slots. *)
            Policy.stateless "agey" (fun obs ->
                Some (Float.max 400. (1000. +. (0.1 *. obs.Policy.min_age))))
      in
      let width = [| 1; 3; 16 |].(width_i) in
      let traces =
        Array.init width (fun k -> Scenario.traces scenario ~replicate:(replicate + k))
      in
      let single = Array.map (fun tr -> Engine.run ~scenario ~traces:tr ~policy ()) traces in
      let stripe = Engine.run_stripe ~scenario ~traces ~policy () in
      compare single stripe = 0)

let test_stripe_dp_policy_bit_identical () =
  (* DPNextFailure is the policy the lazy age ledger and batched hazard
     lookups exist for — and, being stateful, the one whose per-slot
     instances must never leak plan state across slots. *)
  let job =
    Job.create
      ~dist:(Weibull.of_mtbf ~mtbf:1e6 ~shape:0.7)
      ~processors:64
      ~machine:
        (Machine.create ~total_processors:64 ~downtime:60. ~overhead:(Overhead.constant 600.))
      ~work_time:5e5
  in
  let scenario = Scenario.create ~horizon:1e7 ~start_time:0. job in
  let policy = Ckpt_policies.Dp_policies.dp_next_failure ~max_states:60 job in
  let traces = Array.init 3 (fun replicate -> Scenario.traces scenario ~replicate) in
  let single = Array.map (fun tr -> Engine.run ~scenario ~traces:tr ~policy ()) traces in
  let stripe = Engine.run_stripe ~scenario ~traces ~policy () in
  check Alcotest.bool "DP policy stripe slot k == run on traces k" true (compare single stripe = 0)

let test_stripe_shared_births_bit_identical () =
  (* The evaluation harness computes each stripe's lifetime templates
     once and hands the same [initial_births] to every policy's
     lockstep pass.  At platform scale (p = 1024, the scenario's
     default nonzero start time) each of Young, DalyHigh and OptExp
     over such a shared stripe must reproduce per-replicate
     [Engine.run] bit for bit; so must a policy whose periods follow
     [min_age], which the shared templates seed. *)
  let processors = 1024 in
  let job =
    Job.create
      ~dist:(Weibull.of_mtbf ~mtbf:(Ckpt_platform.Units.of_years 125.) ~shape:0.7)
      ~processors
      ~machine:
        (Machine.create ~total_processors:processors ~downtime:60.
           ~overhead:(Overhead.constant 600.))
      ~work_time:(Ckpt_platform.Units.of_years 1000. /. float_of_int processors)
  in
  let scenario = Scenario.create job in
  let traces = Array.init 8 (fun replicate -> Scenario.traces scenario ~replicate) in
  let initial_births = Array.map (Scenario.initial_lifetime_starts scenario) traces in
  List.iter
    (fun policy ->
      let single = Array.map (fun tr -> Engine.run ~scenario ~traces:tr ~policy ()) traces in
      let stripe = Engine.run_stripe ~initial_births ~scenario ~traces ~policy () in
      check Alcotest.bool
        (policy.Policy.name ^ ": shared-births stripe slot k == run on traces k")
        true
        (compare single stripe = 0))
    [
      Ckpt_policies.Young.policy job;
      Ckpt_policies.Daly.high job;
      Ckpt_policies.Optexp.policy job;
      Policy.stateless "agey" (fun obs ->
          Some (Float.max 3600. (Ckpt_policies.Young.period job +. (0.01 *. obs.Policy.min_age))));
    ]

let test_stripe_size_malformed () =
  (* Malformed widths warn on stderr (once per value) and fall back to
     the default instead of being silently eaten: the width is part of
     every sweep-store key. *)
  List.iter
    (fun bad ->
      with_env "CKPT_SWEEP_STRIPE" bad (fun () ->
          check Alcotest.int
            (Printf.sprintf "malformed %S falls back" bad)
            16 (Evaluation.stripe_size ())))
    [ "0"; "-3"; "abc" ];
  with_env "CKPT_SWEEP_STRIPE" "" (fun () ->
      check Alcotest.int "empty means unset" 16 (Evaluation.stripe_size ()));
  with_env "CKPT_SWEEP_STRIPE" " 4 " (fun () ->
      check Alcotest.int "well-formed width" 4 (Evaluation.stripe_size ()))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_metrics_partition; prop_metrics_partition_weibull; prop_stripe_slot_equals_run ]

let () =
  Alcotest.run "simulator"
    [
      ( "engine algebra",
        [
          Alcotest.test_case "no failures" `Quick test_engine_no_failures;
          Alcotest.test_case "failure mid-chunk" `Quick test_engine_single_failure_mid_chunk;
          Alcotest.test_case "failure during checkpoint" `Quick test_engine_failure_during_checkpoint;
          Alcotest.test_case "failure at commit instant" `Quick test_engine_failure_at_commit_instant;
          Alcotest.test_case "failure during recovery" `Quick test_engine_failure_during_recovery;
          Alcotest.test_case "own downtime absorbs" `Quick test_engine_own_downtime_absorbs;
          Alcotest.test_case "cascading downtimes" `Quick test_engine_cascading_downtime;
          Alcotest.test_case "grouped units equivalent" `Quick test_engine_grouped_units_equivalent;
          Alcotest.test_case "policy failure outcome" `Quick test_engine_policy_failed;
          Alcotest.test_case "zero chunks terminate" `Quick test_engine_zero_chunk_policy_terminates;
          Alcotest.test_case "oversized chunk clamped" `Quick test_engine_oversized_chunk_clamped;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "DP fast paths bit-identical" `Quick
            test_engine_fast_paths_bit_identical;
        ] );
      ( "lower bound",
        [
          Alcotest.test_case "no failures" `Quick test_lower_bound_no_failures;
          Alcotest.test_case "just-in-time checkpoint" `Quick test_lower_bound_just_in_time;
          Alcotest.test_case "idles when too close" `Quick test_lower_bound_idle_when_too_close;
          Alcotest.test_case "beats every policy" `Quick test_lower_bound_beats_policies;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "defaults" `Quick test_scenario_defaults;
          Alcotest.test_case "invalid" `Quick test_scenario_invalid;
          Alcotest.test_case "grouped traces" `Quick test_scenario_grouped_traces;
          Alcotest.test_case "initial lifetimes" `Quick test_initial_lifetime_starts;
          Alcotest.test_case "traces are pure" `Quick test_traces_pure;
          Alcotest.test_case "trace_sets = per-replicate" `Quick test_trace_sets_block;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "degradations >= 1" `Quick test_evaluation_degradations;
          Alcotest.test_case "failed policy excluded" `Quick test_evaluation_failed_policy_excluded;
          Alcotest.test_case "average makespan" `Quick test_average_makespan;
          Alcotest.test_case "parallel = serial (CKPT_DOMAINS)" `Quick
            test_evaluation_parallel_deterministic;
          Alcotest.test_case "steal scheduler = seq (CKPT_DOMAINS matrix)" `Quick
            test_evaluation_steal_scheduler_deterministic;
          Alcotest.test_case "no nan in printed tables" `Quick test_evaluation_no_nan_printed;
          Alcotest.test_case "invalid" `Quick test_evaluation_invalid;
          Alcotest.test_case "profile accounting identity" `Quick
            test_profile_accounting_identity;
          Alcotest.test_case "profile stripe x sched bit-identity" `Quick
            test_profile_stripe_sched_bit_identity;
        ] );
      ( "batch engine",
        [
          Alcotest.test_case "DP policy bit-identical" `Quick test_stripe_dp_policy_bit_identical;
          Alcotest.test_case "shared births at p=1024 bit-identical" `Quick
            test_stripe_shared_births_bit_identical;
          Alcotest.test_case "engine x sched x stripe golden matrix" `Quick
            test_engine_matrix_bit_identity;
          Alcotest.test_case "pinned outcome digests" `Quick test_pinned_outcomes;
          Alcotest.test_case "pinned event streams" `Quick test_pinned_event_streams;
          Alcotest.test_case "malformed CKPT_SWEEP_STRIPE warns" `Quick
            test_stripe_size_malformed;
          Alcotest.test_case "stripe_runs == Engine.run loop" `Quick
            test_stripe_runs_match_engine_run;
        ] );
      ( "period search",
        [
          Alcotest.test_case "default factors" `Quick test_default_factors;
          Alcotest.test_case "best period" `Quick test_best_period_sane;
          Alcotest.test_case "fallback never zero" `Quick test_best_period_fallback_not_zero;
          Alcotest.test_case "sweep" `Quick test_sweep;
        ] );
      ( "theory vs simulation",
        [
          Alcotest.test_case "OptExp reproduces Theorem 1" `Quick
            test_simulated_optexp_matches_theorem1;
        ] );
      ( "cost profile",
        [
          Alcotest.test_case "constant profile = run" `Quick test_cost_profile_constant_matches_run;
          Alcotest.test_case "growing checkpoint cost" `Quick test_cost_profile_growing_cost;
          Alcotest.test_case "recovery cost at progress" `Quick test_cost_profile_recovery_cost;
          Alcotest.test_case "recovery cost at committed progress" `Quick
            test_cost_profile_recovery_at_committed_progress;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "weibull trace reconciles with metrics" `Quick
            test_traced_weibull_reconciles;
          Alcotest.test_case "cost-profile trace reconciles bitwise" `Quick
            test_traced_cost_profile_reconciles;
        ] );
      ( "explain",
        [
          Alcotest.test_case "weibull reconciles exactly" `Quick
            test_explain_weibull_reconciles;
          Alcotest.test_case "exponential reconciles exactly" `Quick
            test_explain_exponential_reconciles;
          Alcotest.test_case "declining policy reported" `Quick test_explain_policy_failed;
        ] );
      ( "significance",
        [
          Alcotest.test_case "binomial p-values" `Quick test_binomial_p_values;
          Alcotest.test_case "detects dominance" `Quick test_compare_policies_detects_dominance;
          Alcotest.test_case "self comparison" `Quick test_compare_policy_with_itself;
          Alcotest.test_case "failed runs do not pair" `Quick test_failed_runs_do_not_pair;
        ] );
      ( "energy",
        [
          Alcotest.test_case "of_metrics" `Quick test_energy_of_metrics;
          Alcotest.test_case "invalid" `Quick test_energy_invalid;
          Alcotest.test_case "tradeoff rows" `Quick test_energy_tradeoff_rows;
        ] );
      ("properties", qcheck_cases);
    ]
