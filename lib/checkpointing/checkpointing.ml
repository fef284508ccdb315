(** One-stop namespace over the whole stack.

    Downstream code can depend on the single library [checkpointing]
    and reach every layer as [Checkpointing.<Area>.<Module>]:

    {[
      let dist = Checkpointing.Distributions.Weibull.of_mtbf
                   ~mtbf:(Checkpointing.Platform.Units.of_years 125.)
                   ~shape:0.7
    ]}

    The layers themselves are documented in their own libraries; see
    the README's architecture table. *)

(** Deterministic splittable PRNG streams. *)
module Prng = struct
  module Splitmix64 = Ckpt_prng.Splitmix64
  module Xoshiro256 = Ckpt_prng.Xoshiro256
  module Rng = Ckpt_prng.Rng
end

(** Special functions, root finding, quadrature, summaries. *)
module Numerics = struct
  module Lambert_w = Ckpt_numerics.Lambert_w
  module Special = Ckpt_numerics.Special
  module Rootfind = Ckpt_numerics.Rootfind
  module Quadrature = Ckpt_numerics.Quadrature
  module Summary = Ckpt_numerics.Summary
end

(** Crash-safe filesystem primitives (atomic artifact writes). *)
module Store = struct
  module Atomic_file = Ckpt_store.Atomic_file
end

(** Multicore fan-out: one persistent domain pool. *)
module Parallel = struct
  module Domain_pool = Ckpt_parallel.Domain_pool
end

(** Failure inter-arrival distributions and fitting. *)
module Distributions = struct
  module Distribution = Ckpt_distributions.Distribution
  module Exponential = Ckpt_distributions.Exponential
  module Weibull = Ckpt_distributions.Weibull
  module Lognormal = Ckpt_distributions.Lognormal
  module Gamma_dist = Ckpt_distributions.Gamma_dist
  module Uniform_dist = Ckpt_distributions.Uniform_dist
  module Mixture = Ckpt_distributions.Mixture
  module Lomax = Ckpt_distributions.Lomax
  module Empirical = Ckpt_distributions.Empirical
  module Fit = Ckpt_distributions.Fit
end

(** Machines, overhead models, workload models, paper presets. *)
module Platform = struct
  module Units = Ckpt_platform.Units
  module Overhead = Ckpt_platform.Overhead
  module Workload = Ckpt_platform.Workload
  module Machine = Ckpt_platform.Machine
  module Presets = Ckpt_platform.Presets
end

(** Failure traces, logs, rejuvenation analysis. *)
module Failures = struct
  module Trace = Ckpt_failures.Trace
  module Trace_set = Ckpt_failures.Trace_set
  module Trace_stats = Ckpt_failures.Trace_stats
  module Rejuvenation = Ckpt_failures.Rejuvenation
  module Failure_log = Ckpt_failures.Failure_log
  module Lanl_synth = Ckpt_failures.Lanl_synth
  module Trace_io = Ckpt_failures.Trace_io
end

(** The paper's contribution: closed forms and dynamic programs. *)
module Core = struct
  module Theory = Ckpt_core.Theory
  module Waste = Ckpt_core.Waste
  module Dp_context = Ckpt_core.Dp_context
  module Age_summary = Ckpt_core.Age_summary
  module Dp_makespan = Ckpt_core.Dp_makespan
  module Dp_next_failure = Ckpt_core.Dp_next_failure
end

(** Checkpointing policies (Section 4.1's roster). *)
module Policies = struct
  module Policy = Ckpt_policies.Policy
  module Job = Ckpt_policies.Job
  module Young = Ckpt_policies.Young
  module Daly = Ckpt_policies.Daly
  module Optexp = Ckpt_policies.Optexp
  module Bouguerra = Ckpt_policies.Bouguerra
  module Liu = Ckpt_policies.Liu
  module Dp_policies = Ckpt_policies.Dp_policies
  module Schedule = Ckpt_policies.Schedule
end

(** Execution tracing, metrics and provenance manifests. *)
module Telemetry = struct
  module Metrics = Ckpt_telemetry.Metrics
  module Metrics_export = Ckpt_telemetry.Metrics_export
  module Tracer = Ckpt_telemetry.Tracer
  module Trace_export = Ckpt_telemetry.Trace_export
  module Span = Ckpt_telemetry.Span
  module Provenance = Ckpt_telemetry.Provenance
  module Json = Ckpt_telemetry.Json
end

(** Discrete-event simulation and evaluation. *)
module Simulator = struct
  module Scenario = Ckpt_simulator.Scenario
  module Engine = Ckpt_simulator.Engine
  module Evaluation = Ckpt_simulator.Evaluation
  module Period_search = Ckpt_simulator.Period_search
  module Significance = Ckpt_simulator.Significance
  module Energy = Ckpt_simulator.Energy
end

(** Paper tables/figures as runnable studies. *)
module Experiments = struct
  module Config = Ckpt_experiments.Config
  module Registry = Ckpt_experiments.Registry
  module Setup = Ckpt_experiments.Setup
  module Report = Ckpt_experiments.Report
  module Sweep_store = Ckpt_experiments.Sweep_store
end
