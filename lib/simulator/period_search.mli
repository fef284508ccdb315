(** PeriodLB (Section 4.1): the unattainable-in-practice best periodic
    policy, found by brute-force numerical search — candidate periods
    around OptExp's are each evaluated on freshly generated tuning
    trace sets, and the period with the lowest average makespan wins.

    The paper multiplies/divides OptExp's period by [1 + 0.05 i]
    (i <= 180) and by [1.1^j] (j <= 60) and scores each on 1,000
    scenarios; the defaults here are a lighter grid and tuning-set
    size, configurable up to the paper's scale. *)

val tuning_offset : int
(** First replicate of the tuning trace sets: 1,000,000, past any
    evaluation's replicate range. *)

val default_factors : unit -> float list
(** Sorted multiplicative grid: [1.1^j] for [|j| <= 25] merged with
    [1 + 0.05 i] for [|i| <= 10]. *)

val best_period :
  ?factors:float list ->
  ?tuning_replicates:int ->
  scenario:Scenario.t ->
  base_period:float ->
  unit ->
  float * float
(** [(period, average tuning makespan)] of the winning candidate.
    Tuning trace sets are drawn from a replicate range disjoint from
    the one the evaluation uses (offset by 1,000,000), generated once
    per search ({!Scenario.trace_sets}) and dropped with it; candidates
    are scored in parallel, with the winner picked in candidate order.
    If no candidate lies in [(0, work]] or none completes a tuning
    run, returns [(min base_period work, infinity)] — never a zero or
    negative period. *)

val policy :
  ?factors:float list -> ?tuning_replicates:int -> Scenario.t -> Ckpt_policies.Policy.t
(** The PeriodLB policy: runs the search (once, eagerly) with OptExp's
    period as base and checkpoints periodically at the winner. *)
