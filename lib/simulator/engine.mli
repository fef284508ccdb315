(** The discrete-event execution engine.

    Simulates one execution of a tightly coupled parallel job on a
    trace set, under a checkpointing policy, with the paper's
    failed-only rejuvenation model (Section 3.1):

    - all [p] processors execute each chunk synchronously and
      checkpoint together;
    - a failure of any processor during execution, checkpointing or
      recovery destroys the work since the last committed checkpoint;
    - the failed processor undergoes a downtime [D] (its own failure
      dates inside the downtime are absorbed); healthy processors keep
      their ages but stall;
    - further processors may fail during a downtime or during the
      recovery, cascading (Section 3.2's discussion of [E(Trec)]);
    - the recovery of the last checkpoint takes [R(p)] once all
      processors are simultaneously up, and restarts after any
      interrupting failure;
    - a lifetime restarts at the beginning of the recovery period that
      follows the downtime. *)

type metrics = {
  makespan : float;  (** total wall-clock time of the execution. *)
  useful_work : float;  (** seconds of committed chunk work. *)
  checkpoint_time : float;  (** committed checkpoint overhead. *)
  wasted_time : float;
      (** execution and checkpointing time destroyed by failures. *)
  recovery_time : float;  (** completed and interrupted recoveries. *)
  stall_time : float;  (** downtime waits (processors idle). *)
  failures : int;  (** effective platform failures during the job. *)
  chunks : int;  (** committed chunks. *)
  min_chunk : float;
  max_chunk : float;  (** extreme committed chunk sizes ([0.] if none). *)
}

type outcome =
  | Completed of metrics
  | Policy_failed of { at_time : float; remaining : float }
      (** the policy returned [None] (could not compute a chunk). *)

exception Accounting_violation of string
(** Raised by every entry point below if a completed run's waste
    decomposition does not partition its makespan:
    [makespan = useful + checkpoint + wasted + recovery + stall]
    within {!accounting_tolerance}.  The identity holds by
    construction — every clock advance is matched by an accumulator
    add of the same operands — so a violation means time was
    mis-attributed, and it fails loudly rather than skewing tables. *)

val accounting_residual : metrics -> float
(** [|makespan - (useful + checkpoint + wasted + recovery + stall)|]. *)

val accounting_tolerance : ?clock:float -> metrics -> float
(** Ulp-scaled bound on the residual attributable to floating-point
    rounding alone: one ulp at the clock's magnitude per accounting
    operation (~4 per committed chunk, ~8 per failure, doubled for
    headroom).  [clock] is the absolute simulated end time, whose
    magnitude sets the ulp when the scenario starts late (defaults to
    [makespan]). *)

(** {2 Execution}

    One loop steps every simulated execution: {!run_stripe} advances a
    stripe of executions — one policy, one scenario, one trace set per
    slot — in lockstep over structure-of-arrays state (unboxed float
    accumulators indexed by slot, one reusable mutable observation per
    slot, lifetime starts kept as the shared initial template plus the
    run's few restarts, a lazily created per-slot incremental age
    ledger).  Slots never share decisions or mutable state: slot [k]'s
    outcome is exactly the execution on [traces.(k)] alone, so {!run}
    is slot 0 of a width-1 stripe.  Tracing and progress-dependent
    cost profiles are features of the one loop. *)

val run_stripe :
  ?trace:Ckpt_telemetry.Tracer.buffer array ->
  ?cost_profile:(progress:float -> float * float) ->
  ?initial_births:float array array ->
  scenario:Scenario.t ->
  traces:Ckpt_failures.Trace_set.t array ->
  policy:Ckpt_policies.Policy.t ->
  unit ->
  outcome array
(** Run [policy] on every slot's trace set, with a fresh
    [policy.instantiate ()] per slot; slot [k] of the result is
    bit-identical to [run ~scenario ~traces:traces.(k) ~policy ()].

    - [trace], one buffer per slot, receives a typed event for every
      phase transition (policy decision, chunk start/commit,
      checkpoint, failure, waste, downtime, recovery
      start/abort/complete); summed span durations reconcile with the
      returned {!metrics} (see [Ckpt_telemetry.Tracer.totals]).
      Untraced runs pay one [match] per site.
    - [cost_profile] makes the checkpoint and recovery costs depend on
      the job's progress (fraction of work committed, in [\[0, 1\]]) —
      the extension sketched in the paper's conclusion for
      applications whose footprint evolves (e.g. adaptive mesh
      refinement).  It returns [(C, R)] at a progress point; a chunk's
      checkpoint is charged at the progress the chunk {e ends} at, a
      recovery at the progress being restored.  Without it the job's
      constant [C(p)] and [R(p)] apply.
    - [initial_births] supplies each slot's
      {!Scenario.initial_lifetime_starts} (computed once by a caller
      running several policies over the same trace sets); the stripe
      reads it and never mutates it.

    An empty [traces] yields [[||]].
    @raise Invalid_argument if [trace] or [initial_births] is present
    with a different width than [traces]. *)

val run :
  ?trace:Ckpt_telemetry.Tracer.buffer ->
  ?cost_profile:(progress:float -> float * float) ->
  scenario:Scenario.t ->
  traces:Ckpt_failures.Trace_set.t ->
  policy:Ckpt_policies.Policy.t ->
  unit ->
  outcome
(** Simulate one execution: slot 0 of a width-1 {!run_stripe}.  The
    trace set must cover the scenario's processors and horizon. *)

val lower_bound :
  ?trace:Ckpt_telemetry.Tracer.buffer ->
  scenario:Scenario.t ->
  traces:Ckpt_failures.Trace_set.t ->
  unit ->
  metrics
(** The omniscient LowerBound of Section 4.1: knows every failure date
    and checkpoints exactly [C(p)] ahead of each, so it never wastes
    execution time; unattainable in practice, serves as the absolute
    reference.  An oracle rather than a policy, it applies its own
    decision rule on the stripe state's failure machinery; [trace]
    receives the same event stream as {!run}'s. *)
