(* Unit tests for the policy layer. *)

module Policy = Ckpt_policies.Policy
module Job = Ckpt_policies.Job
module Young = Ckpt_policies.Young
module Daly = Ckpt_policies.Daly
module Optexp = Ckpt_policies.Optexp
module Bouguerra = Ckpt_policies.Bouguerra
module Liu = Ckpt_policies.Liu
module Dp_policies = Ckpt_policies.Dp_policies
module Machine = Ckpt_platform.Machine
module Overhead = Ckpt_platform.Overhead
module Workload = Ckpt_platform.Workload
module Units = Ckpt_platform.Units
module D = Ckpt_distributions.Distribution
module Exponential = Ckpt_distributions.Exponential
module Weibull = Ckpt_distributions.Weibull
module Metrics = Ckpt_telemetry.Metrics

let check = Alcotest.check
let close ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let machine p = Machine.create ~total_processors:p ~downtime:60. ~overhead:(Overhead.constant 600.)

let sequential_job =
  Job.create ~dist:(Exponential.of_mtbf ~mtbf:86400.) ~processors:1 ~machine:(machine 1)
    ~work_time:(20. *. Units.day)

let petascale_job ~shape =
  Job.create
    ~dist:(Weibull.of_mtbf ~mtbf:(Units.of_years 125.) ~shape)
    ~processors:45208 ~machine:(machine 45208)
    ~work_time:(Units.of_years 1000. /. 45208.)

let observation ?(phase = Policy.Start) ?(remaining = 1e6) ?(units = 1) ?(min_age = 0.)
    ?(ages = [| 0. |]) () =
  let iter_ages f = Array.iter f ages in
  {
    Policy.phase;
    remaining;
    failure_units = units;
    min_age;
    iter_ages;
    summarize = Policy.summarize_of_iter ~units ~iter_ages;
  }

(* -- policy plumbing ------------------------------------------------------- *)

let test_periodic_chunks () =
  let p = Policy.periodic "test" ~period:500. in
  let i = p.Policy.instantiate () in
  check (Alcotest.option (Alcotest.float 0.)) "full period" (Some 500.)
    (i (observation ~remaining:1e6 ()));
  check (Alcotest.option (Alcotest.float 0.)) "clamped tail" (Some 120.)
    (i (observation ~remaining:120. ()))

let test_periodic_invalid_period () =
  let p = Policy.periodic "test" ~period:0. in
  let i = p.Policy.instantiate () in
  check (Alcotest.option (Alcotest.float 0.)) "declines" None (i (observation ()))

let test_clamp_chunk () =
  close "clamps above" 10. (Policy.clamp_chunk ~remaining:10. 50.);
  close "keeps below" 5. (Policy.clamp_chunk ~remaining:10. 5.);
  close "floors at zero" 0. (Policy.clamp_chunk ~remaining:10. (-3.))

let test_purity_declarations () =
  (* The [decide] field declares a decision a pure function of the
     scalar observation fields.  No engine reads it, but it is public
     and must stay truthful: pure scalar policies declare it; anything
     stateful (the DP cursors) or constructed through the no-promises
     [stateless] escape hatch must not. *)
  let pure p = Option.is_some p.Policy.decide in
  check Alcotest.bool "periodic is pure" true (pure (Policy.periodic "p" ~period:500.));
  check Alcotest.bool "pure_scalar is pure" true
    (pure (Policy.pure_scalar "f" (fun _ -> None)));
  check Alcotest.bool "stateless makes no promise" false
    (pure (Policy.stateless "s" (fun _ -> None)));
  check Alcotest.bool "Young is pure" true (pure (Young.policy sequential_job));
  check Alcotest.bool "Liu is pure" true (pure (Liu.policy (petascale_job ~shape:0.7)));
  check Alcotest.bool "DPNextFailure is stateful" false
    (pure (Dp_policies.dp_next_failure sequential_job));
  check Alcotest.bool "DPMakespan is stateful" false
    (pure (Dp_policies.dp_makespan sequential_job));
  (* A declared [decide] must be the very decision function the
     instances run: same observation, same answer. *)
  let p = Policy.periodic "p" ~period:500. in
  match p.Policy.decide with
  | None -> Alcotest.fail "periodic lost its purity declaration"
  | Some f ->
      let obs = observation ~remaining:1e6 () in
      check (Alcotest.option (Alcotest.float 0.)) "decide == instance" (p.Policy.instantiate () obs)
        (f obs)

(* -- job -------------------------------------------------------------------- *)

let test_job_validation () =
  Alcotest.check_raises "zero work" (Invalid_argument "Job.create: work_time must be positive")
    (fun () ->
      ignore
        (Job.create ~dist:(Exponential.create ~rate:1.) ~processors:1 ~machine:(machine 1)
           ~work_time:0.))

let test_job_group_size () =
  let j =
    Job.create ~dist:(Exponential.create ~rate:1.) ~processors:8 ~machine:(machine 8)
      ~work_time:10.
  in
  check Alcotest.int "default units" 8 (Job.failure_units j);
  let grouped = Job.with_group_size j 4 in
  check Alcotest.int "grouped units" 2 (Job.failure_units grouped);
  Alcotest.check_raises "non-divisor"
    (Invalid_argument "Job.with_group_size: group_size must divide the processor count")
    (fun () -> ignore (Job.with_group_size j 3))

let test_job_platform_quantities () =
  let j = petascale_job ~shape:0.7 in
  close ~tol:1e-6 "unit mtbf" (Units.of_years 125.) (Job.unit_mtbf j);
  close ~tol:1e-3 "platform mtbf" (Units.of_years 125. /. 45208.) (Job.platform_mtbf j);
  close "C(p)" 600. (Job.checkpoint_cost j);
  close "D" 60. (Job.downtime j)

let test_grouped_job_period_scaling () =
  (* Node-grained failures: 4x fewer failure units means a 2x longer
     Young period (sqrt of the unit count). *)
  let base =
    Job.create ~dist:(Exponential.of_mtbf ~mtbf:1e6) ~processors:64 ~machine:(machine 64)
      ~work_time:1e6
  in
  let grouped = Job.with_group_size base 4 in
  close ~tol:1e-9 "sqrt(4) ratio" 2. (Young.period grouped /. Young.period base)

let test_job_of_workload () =
  let w = Workload.create ~total_work:1000. ~model:Workload.Embarrassingly_parallel in
  let j =
    Job.of_workload ~dist:(Exponential.create ~rate:1.) ~processors:8 ~machine:(machine 8)
      ~workload:w
  in
  close "W(p)" 125. j.Job.work_time

(* -- periodic heuristics ------------------------------------------------------ *)

let test_young_formula () =
  close ~tol:1e-6 "sqrt(2 C MTBF/p)"
    (sqrt (2. *. 600. *. 86400.))
    (Young.period sequential_job)

let test_daly_low_formula () =
  close ~tol:1e-6 "recovery folded in"
    (sqrt (2. *. 600. *. (86400. +. 60. +. 600.)))
    (Daly.low_order_period sequential_job)

let test_daly_high_reasonable () =
  let high = Daly.high_order_period sequential_job in
  let low = Daly.low_order_period sequential_job in
  check Alcotest.bool "within 20% of low order" true (abs_float (high -. low) /. low < 0.2)

let test_daly_high_small_mtbf () =
  (* When C >= 2 MTBF the period degenerates to the MTBF itself. *)
  let j =
    Job.create ~dist:(Exponential.of_mtbf ~mtbf:250.) ~processors:1 ~machine:(machine 1)
      ~work_time:1e5
  in
  close "period = MTBF" 250. (Daly.high_order_period j)

let test_optexp_period () =
  let k = Optexp.chunk_count sequential_job in
  close ~tol:1e-9 "W / K*"
    (sequential_job.Job.work_time /. float_of_int k)
    (Optexp.period sequential_job);
  let young = Young.period sequential_job in
  check Alcotest.bool "near Young" true
    (abs_float (Optexp.period sequential_job -. young) /. young < 0.1)

(* -- bouguerra ------------------------------------------------------------------ *)

let test_bouguerra_minimizes_waste () =
  let j = sequential_job in
  let p = Bouguerra.period j in
  let v = Bouguerra.expected_waste_ratio j ~period:p in
  List.iter
    (fun factor ->
      check Alcotest.bool
        (Printf.sprintf "no better at %g x" factor)
        true
        (Bouguerra.expected_waste_ratio j ~period:(p *. factor) >= v -. 1e-9))
    [ 0.25; 0.5; 0.8; 1.25; 2.; 4. ]

let test_bouguerra_matches_optexp_exponential () =
  (* Under memoryless failures the rejuvenation assumption is harmless:
     Bouguerra's period should sit near OptExp's. *)
  let j = sequential_job in
  let b = Bouguerra.period j and o = Optexp.period j in
  check Alcotest.bool
    (Printf.sprintf "bouguerra %.0f ~ optexp %.0f" b o)
    true
    (abs_float (b -. o) /. o < 0.15)

(* -- liu --------------------------------------------------------------------------- *)

let test_liu_exponential_is_young () =
  (* Constant hazard: the frequency function is constant, so every
     interval is sqrt(2 C / (p lambda)) = Young's period. *)
  let j = sequential_job in
  let table = Liu.build j in
  let young = Young.period j in
  List.iter
    (fun age ->
      let v = Liu.interval j table ~platform_age:age in
      check Alcotest.bool
        (Printf.sprintf "interval %.1f ~ young %.1f at age %g" v young age)
        true
        (abs_float (v -. young) /. young < 0.01))
    [ 0.; 600.; 12345.; 1e6 ]

let test_liu_weibull_intervals_grow () =
  (* Decreasing hazard: intervals lengthen as the platform ages. *)
  let j = petascale_job ~shape:0.7 in
  let table = Liu.build j in
  let early = Liu.interval j table ~platform_age:600. in
  let late = Liu.interval j table ~platform_age:(Units.of_years 0.5) in
  check Alcotest.bool (Printf.sprintf "%.0f < %.0f" early late) true (early < late)

let test_liu_finite_at_age_zero () =
  (* The frequency density is integrable at 0 even for k < 1: a fresh
     single processor gets a finite, usable first interval (the paper's
     Table 3 shows Liu running in the one-processor Weibull study). *)
  let j =
    Job.create
      ~dist:(Weibull.of_mtbf ~mtbf:Units.hour ~shape:0.7)
      ~processors:1 ~machine:(machine 1) ~work_time:(20. *. Units.day)
  in
  let table = Liu.build j in
  let v = Liu.interval j table ~platform_age:0. in
  check Alcotest.bool (Printf.sprintf "finite first interval %.0f" v) true
    (Float.is_finite v && v > 600.)

let test_liu_fails_on_small_shape_large_platform () =
  (* Right after a failure (age = R) at full Jaguar scale with k = 0.5
     the prescribed interval is below C: the policy must decline. *)
  let j = petascale_job ~shape:0.5 in
  let policy = Liu.policy j in
  let i = policy.Policy.instantiate () in
  check
    (Alcotest.option (Alcotest.float 0.))
    "declines" None
    (i (observation ~units:45208 ~min_age:600. ()))

let test_liu_works_on_old_platform () =
  let j = petascale_job ~shape:0.7 in
  let policy = Liu.policy j in
  let i = policy.Policy.instantiate () in
  match i (observation ~units:45208 ~min_age:(Units.of_years 1.) ()) with
  | Some chunk -> check Alcotest.bool "reasonable chunk" true (chunk > 600.)
  | None -> Alcotest.fail "should produce an interval at an old age"

(* -- DP policies --------------------------------------------------------------------- *)

let test_dp_next_failure_start_plans () =
  let j = sequential_job in
  let policy = Dp_policies.dp_next_failure j in
  let i = policy.Policy.instantiate () in
  match i (observation ~remaining:j.Job.work_time ~ages:[| 0. |] ()) with
  | None -> Alcotest.fail "must plan at start"
  | Some chunk ->
      check Alcotest.bool "sane first chunk" true (chunk > 0. && chunk <= j.Job.work_time)

let test_dp_next_failure_follows_plan () =
  let j = sequential_job in
  let policy = Dp_policies.dp_next_failure j in
  let i = policy.Policy.instantiate () in
  let first =
    Option.get (i (observation ~remaining:j.Job.work_time ~ages:[| 0. |] ()))
  in
  let second =
    Option.get
      (i
         (observation ~phase:Policy.After_checkpoint
            ~remaining:(j.Job.work_time -. first)
            ~ages:[| first +. 600. |] ()))
  in
  check Alcotest.bool "keeps consuming its plan" true (second > 0.)

let test_dp_instances_independent () =
  let j = sequential_job in
  let policy = Dp_policies.dp_next_failure j in
  let a = policy.Policy.instantiate () in
  let b = policy.Policy.instantiate () in
  let ca = Option.get (a (observation ~remaining:j.Job.work_time ~ages:[| 0. |] ())) in
  (* Drain a's plan a bit; b must still start from scratch. *)
  ignore
    (a
       (observation ~phase:Policy.After_checkpoint
          ~remaining:(j.Job.work_time -. ca)
          ~ages:[| ca +. 600. |] ()));
  let cb = Option.get (b (observation ~remaining:j.Job.work_time ~ages:[| 0. |] ())) in
  close ~tol:1e-9 "fresh instance repeats the first decision" ca cb

let test_dp_makespan_policy_walk () =
  let j = sequential_job in
  let policy = Dp_policies.dp_makespan j in
  let i = policy.Policy.instantiate () in
  let remaining = ref j.Job.work_time in
  let steps = ref 0 in
  let phase = ref Policy.Start in
  while !remaining > 1e-6 && !steps < 10_000 do
    incr steps;
    match i (observation ~phase:!phase ~remaining:!remaining ~ages:[| 0. |] ()) with
    | None -> Alcotest.fail "DPMakespan must always answer"
    | Some chunk ->
        check Alcotest.bool "chunk positive and clamped" true (chunk > 0. && chunk <= !remaining +. 1e-9);
        remaining := !remaining -. chunk;
        phase := Policy.After_checkpoint
  done;
  check Alcotest.bool "terminates" true (!steps < 10_000)

let test_dp_makespan_recovers_after_failure () =
  let j = sequential_job in
  let policy = Dp_policies.dp_makespan j in
  let i = policy.Policy.instantiate () in
  let first = Option.get (i (observation ~remaining:j.Job.work_time ~ages:[| 0. |] ())) in
  let after_failure =
    Option.get
      (i (observation ~phase:Policy.After_recovery ~remaining:j.Job.work_time ~ages:[| 600. |] ()))
  in
  check Alcotest.bool "still prescribes work" true (after_failure > 0.);
  ignore first

let test_dp_makespan_bucket_table_canonical () =
  (* The per-bucket table cache must hold the same table no matter
     which initial age populated it first: otherwise results depend on
     the order domains claim replicates.  Ages 700 s and 1050 s share
     a 50%-geometric bucket; seeding the cache at one then querying at
     the other must match querying a fresh cache directly. *)
  let j =
    Job.create
      ~dist:(Exponential.of_mtbf ~mtbf:(Units.of_years 125.))
      ~processors:45208 ~machine:(machine 45208)
      ~work_time:(Units.of_years 1000. /. 45208.)
  in
  let plan ~seed_age ~query_age =
    let policy = Dp_policies.dp_makespan j in
    (if seed_age <> query_age then
       let seeder = policy.Policy.instantiate () in
       ignore
         (seeder
            (observation ~remaining:j.Job.work_time ~min_age:seed_age ~ages:[| seed_age |] ())));
    let i = policy.Policy.instantiate () in
    let remaining = ref j.Job.work_time in
    let phase = ref Policy.Start in
    let chunks = ref [] in
    while !remaining > 1e-6 && List.length !chunks < 500 do
      match i (observation ~phase:!phase ~remaining:!remaining ~min_age:query_age ~ages:[| query_age |] ()) with
      | None -> Alcotest.fail "DPMakespan must always answer"
      | Some chunk ->
          chunks := chunk :: !chunks;
          remaining := !remaining -. chunk;
          phase := Policy.After_checkpoint
    done;
    List.rev !chunks
  in
  check (Alcotest.list (Alcotest.float 0.)) "seeded and fresh caches agree"
    (plan ~seed_age:1050. ~query_age:1050.)
    (plan ~seed_age:700. ~query_age:1050.)

let test_dp_makespan_tables_owned_by_policy () =
  (* Six Start decisions over five age buckets (900 s and 1000 s share
     one).  The policy value owns one table per (domain, bucket): a
     second instantiation on this domain reuses all five, a second
     policy value solves its own five, and every table is solved at
     its bucket's canonical age, so the chunks are bit-identical
     whoever solved them. *)
  let j = sequential_job in
  let ages = [ 0.; 900.; 1000.; 3600.; 14400.; 86400. ] in
  let buckets = 5 in
  let walk policy =
    let i = policy.Policy.instantiate () in
    List.map
      (fun age ->
        match
          i
            (observation ~phase:Policy.Start ~remaining:j.Job.work_time ~min_age:age
               ~ages:[| age |] ())
        with
        | Some chunk -> chunk
        | None -> Alcotest.failf "DPMakespan declined at age %.0f" age)
      ages
  in
  let counter name =
    match Metrics.find ("dp_makespan/table_cache_" ^ name) with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "counter dp_makespan/table_cache_%s missing" name
  in
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ~prefix:"dp_makespan/" ();
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
  let policy = Dp_policies.dp_makespan j in
  let first = walk policy in
  check Alcotest.int "one miss per bucket" buckets (counter "misses");
  check Alcotest.int "same-bucket age hits" (List.length ages - buckets) (counter "hits");
  let second = walk policy in
  check Alcotest.int "second instantiation shares the tables" buckets (counter "misses");
  check Alcotest.int "second instantiation only hits"
    ((2 * List.length ages) - buckets)
    (counter "hits");
  check (Alcotest.list (Alcotest.float 0.)) "shared tables are bit-identical" first second;
  let other = walk (Dp_policies.dp_makespan j) in
  check Alcotest.int "another policy value solves its own" (2 * buckets) (counter "misses");
  check (Alcotest.list (Alcotest.float 0.)) "fresh tables are bit-identical" first other

(* -- schedule ------------------------------------------------------------------------ *)

module Schedule = Ckpt_policies.Schedule

let test_schedule_periodic_even () =
  let j = sequential_job in
  let entries = Schedule.failure_free (Policy.periodic "p" ~period:100_000.) j in
  let total = List.fold_left (fun acc e -> acc +. e.Schedule.chunk) 0. entries in
  close ~tol:1e-6 "tiles the work" j.Job.work_time total;
  (* All full-period chunks, one remainder. *)
  let full = List.filter (fun e -> abs_float (e.Schedule.chunk -. 100_000.) < 1e-6) entries in
  check Alcotest.int "17 full periods" 17 (List.length full);
  check Alcotest.int "plus remainder" 18 (List.length entries);
  (* Consecutive starts are separated by chunk + C. *)
  (match entries with
  | e1 :: e2 :: _ -> close ~tol:1e-6 "gap includes C" (100_000. +. 600.) (e2.Schedule.start -. e1.Schedule.start)
  | _ -> Alcotest.fail "expected entries");
  match Schedule.interval_range entries with
  | Some (lo, hi) ->
      close ~tol:1e-6 "max is the period" 100_000. hi;
      check Alcotest.bool "min is the tail" true (lo < 100_000.)
  | None -> Alcotest.fail "nonempty range"

let test_schedule_declining_policy_empty () =
  let j = sequential_job in
  check Alcotest.int "empty" 0
    (List.length (Schedule.failure_free (Policy.stateless "no" (fun _ -> None)) j))

let test_schedule_dpnf_nonuniform () =
  (* On a Weibull platform the DP's timetable is not one fixed period
     (the paper quotes 2,984-6,108 s on Jaguar). *)
  let j = petascale_job ~shape:0.7 in
  let entries =
    Schedule.failure_free (Dp_policies.dp_next_failure j) j
  in
  check Alcotest.bool "nonempty" true (entries <> []);
  match Schedule.interval_range entries with
  | Some (lo, hi) ->
      check Alcotest.bool (Printf.sprintf "varied: %.0f .. %.0f s" lo hi) true (hi > lo +. 1.)
  | None -> Alcotest.fail "range"

let test_schedule_csv () =
  let csv = Schedule.to_csv [ { Schedule.start = 0.; chunk = 10.; checkpoint_at = 10. } ] in
  check Alcotest.string "csv" "start,chunk,checkpoint_at\n0,10,10\n" csv

let () =
  Alcotest.run "policies"
    [
      ( "plumbing",
        [
          Alcotest.test_case "periodic chunks" `Quick test_periodic_chunks;
          Alcotest.test_case "periodic declines on bad period" `Quick test_periodic_invalid_period;
          Alcotest.test_case "clamp" `Quick test_clamp_chunk;
          Alcotest.test_case "purity declarations" `Quick test_purity_declarations;
        ] );
      ( "job",
        [
          Alcotest.test_case "validation" `Quick test_job_validation;
          Alcotest.test_case "group size" `Quick test_job_group_size;
          Alcotest.test_case "platform quantities" `Quick test_job_platform_quantities;
          Alcotest.test_case "grouped period scaling" `Quick test_grouped_job_period_scaling;
          Alcotest.test_case "of_workload" `Quick test_job_of_workload;
        ] );
      ( "periodic heuristics",
        [
          Alcotest.test_case "young formula" `Quick test_young_formula;
          Alcotest.test_case "daly low formula" `Quick test_daly_low_formula;
          Alcotest.test_case "daly high near low" `Quick test_daly_high_reasonable;
          Alcotest.test_case "daly high small MTBF" `Quick test_daly_high_small_mtbf;
          Alcotest.test_case "optexp period" `Quick test_optexp_period;
        ] );
      ( "bouguerra",
        [
          Alcotest.test_case "minimizes waste ratio" `Quick test_bouguerra_minimizes_waste;
          Alcotest.test_case "matches optexp (exponential)" `Quick
            test_bouguerra_matches_optexp_exponential;
        ] );
      ( "liu",
        [
          Alcotest.test_case "exponential = young" `Quick test_liu_exponential_is_young;
          Alcotest.test_case "weibull intervals grow" `Quick test_liu_weibull_intervals_grow;
          Alcotest.test_case "finite at age zero" `Quick test_liu_finite_at_age_zero;
          Alcotest.test_case "fails at scale, small k" `Quick
            test_liu_fails_on_small_shape_large_platform;
          Alcotest.test_case "works at old ages" `Quick test_liu_works_on_old_platform;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "periodic timetable" `Quick test_schedule_periodic_even;
          Alcotest.test_case "declining policy" `Quick test_schedule_declining_policy_empty;
          Alcotest.test_case "dpnf non-uniform" `Quick test_schedule_dpnf_nonuniform;
          Alcotest.test_case "csv" `Quick test_schedule_csv;
        ] );
      ( "dp policies",
        [
          Alcotest.test_case "dpnf plans at start" `Quick test_dp_next_failure_start_plans;
          Alcotest.test_case "dpnf follows plan" `Quick test_dp_next_failure_follows_plan;
          Alcotest.test_case "instances independent" `Quick test_dp_instances_independent;
          Alcotest.test_case "dpm full walk" `Quick test_dp_makespan_policy_walk;
          Alcotest.test_case "dpm recovers after failure" `Quick
            test_dp_makespan_recovers_after_failure;
          Alcotest.test_case "dpm bucket table is canonical" `Quick
            test_dp_makespan_bucket_table_canonical;
          Alcotest.test_case "dpm tables owned by the policy" `Quick
            test_dp_makespan_tables_owned_by_policy;
        ] );
    ]
