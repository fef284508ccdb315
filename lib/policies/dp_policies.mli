(** Policy adapters around the core dynamic programs. *)

val dp_makespan :
  ?quantum:float -> ?cap_states:int -> ?chunk_factor:float -> Job.t -> Policy.t
(** DPMakespan (Algorithm 1) as a policy.  For parallel jobs it adopts
    the paper's rejuvenate-all assumption (the aggregated
    fresh-platform distribution) — "without this assumption this
    heuristic cannot be used" (Section 4.1).  Solved tables are shared
    across executions per initial-age bucket (the optimal plan varies
    slowly with [tau0]).  The policy value owns them, one per (domain,
    bucket), and they are freed with it.  Each is solved at the
    bucket's canonical age, so results do not depend on which
    execution or domain asked first.  Telemetry:
    [dp_makespan/table_cache_hits] and [dp_makespan/table_cache_misses]
    (one miss per solved table).  Recipe:
    [DPMakespan(quantum=… cap_states=… chunk_factor=…)], with
    [quantum=auto] for the default rule. *)

val dp_next_failure :
  ?nexact:int ->
  ?napprox:int ->
  ?max_states:int ->
  ?truncation_factor:float ->
  ?cost_profile:(progress:float -> float * float) ->
  ?reference:bool ->
  Job.t ->
  Policy.t
(** DPNextFailure (Algorithm 2 / Section 3.3) as a policy: after every
    failure (and at start) it compresses the processor ages and plans
    the chunk sequence maximizing the expected work before the next
    platform failure; the plan is followed until the next failure or
    until its valid prefix is exhausted, then recomputed.

    [cost_profile] enables the paper's conclusion extension: the
    checkpoint/recovery costs seen by each replanning step are taken
    at the job's current progress, so the policy adapts its chunk
    sizes as the application's footprint evolves (pair it with
    [Ckpt_simulator.Engine.run ~cost_profile] — same profile).

    [reference] (default false) plans through the slow reference
    paths — a full {!Ckpt_core.Age_summary.build} from the processor
    ages and an exhaustive [~prune:false] chunk scan — instead of the
    engine's incremental summary and the pruned scan.  Both paths give
    bit-identical plans; tests compare them.

    Recipe: [DPNextFailure(nexact=… napprox=… max_states=…
    truncation_factor=…)], with a trailing [cost_profile] when one is
    set; [reference] is left out. *)
