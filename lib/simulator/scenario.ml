module Job = Ckpt_policies.Job
module Trace = Ckpt_failures.Trace
module Trace_set = Ckpt_failures.Trace_set
module Units = Ckpt_platform.Units
module Metrics = Ckpt_telemetry.Metrics
module Span = Ckpt_telemetry.Span

let traces_generated = Metrics.counter "scenario/traces_generated"

type t = { job : Job.t; seed : int64; horizon : float; start_time : float }

let create ?(seed = 0x5EEDL) ?horizon ?start_time job =
  let single = job.Job.processors = 1 in
  let horizon =
    match horizon with Some h -> h | None -> if single then Units.of_years 1. else Units.of_years 11.
  in
  let start_time =
    match start_time with Some s -> s | None -> if single then 0. else Units.of_years 1.
  in
  if start_time < 0. || start_time >= horizon then
    invalid_arg "Scenario.create: start_time outside [0, horizon)";
  { job; seed; horizon; start_time }

(* One trace per failure unit.  A trace set is a pure function of
   (seed, replicate), so whoever needs one again regenerates it or
   keeps it: a stripe keeps its block for every policy it steps, the
   period search its tuning sets for every candidate. *)
let traces t ~replicate =
  Metrics.incr traces_generated;
  Trace_set.generate ~seed:t.seed ~replicate t.job.Job.dist
    ~processors:(Job.failure_units t.job) ~horizon:t.horizon

let initial_lifetime_starts t traces =
  let d = Job.downtime t.job in
  Array.init (Trace_set.processors traces) (fun i ->
      match Trace.last_failure_before (Trace_set.trace traces i) t.start_time with
      | None -> 0.
      | Some f -> f +. d)

let trace_sets t ~first ~len =
  Span.time ~layer:"failures.trace_gen" "Scenario.traces" (fun () ->
      let sets = Array.init len (fun i -> traces t ~replicate:(first + i)) in
      (sets, Array.map (initial_lifetime_starts t) sets))
