(** DPNextFailure (Algorithm 2 and Section 3.3).

    Maximizes the expected amount of work successfully checkpointed
    before the next platform failure,

    [E(W) = sum_i w_i prod_{j<=i} Psuc(w_j + C | t_j)]  (Proposition 3),

    by dynamic programming over (remaining quanta, chunks done).  The
    parallel extension evaluates [Psuc] over an {!Age_summary} of the
    processor ages, and two speedups from the paper are applied:

    - the planned work is truncated to
      [min (remaining, truncation_factor * platform MTBF)]
      (default factor 2), and
    - when truncation bites, only the first half of the plan is meant
      to be executed before replanning ([valid_work]).

    Note: Algorithm 2's pseudo-code keeps the candidate minimizing
    [cur] — a typo, since NextFailure is a maximization; we maximize. *)

type plan = {
  chunks : float list;
      (** chunk sizes (work seconds, excluding checkpoint), in order;
          they sum to the planned work. *)
  expected_work : float;  (** optimal [E(W)] for the planned work. *)
  quantum : float;  (** the time quantum [u] used. *)
  truncated : bool;
  valid_work : float;
      (** how much leading work of [chunks] should be executed before
          recomputing a plan. *)
}

val solve :
  ?max_states:int ->
  ?truncation_factor:float ->
  ?prune:bool ->
  context:Dp_context.t ->
  ages:Age_summary.t ->
  work:float ->
  unit ->
  plan
(** [solve ~context ~ages ~work ()] plans for [work] seconds of
    remaining (parallel) work.  [context.dist] is the {e per-processor}
    distribution; the platform MTBF used for truncation is
    [dist.mean / processors].  [max_states] bounds the DP dimension
    (the quantum adapts: [u = planned work / max_states]); default 150.
    [truncation_factor <= 0] disables truncation.

    [prune] (default true) enables a branch-and-bound early exit in
    the per-cell chunk scan: after each candidate, the entire
    remaining tail is bounded by one survival-probability upper bound
    times a prefix maximum of the next DP row in "value minus chunk"
    form, and the scan stops once the bound cannot strictly beat the
    incumbent.  (The tempting alternative — assuming the argmax is
    monotone in remaining work and divide-and-conquering — is unsound:
    with all ages tied at zero under Weibull k = 0.7 the argmax
    oscillates.)  Every evaluated candidate uses the exact reference
    expression and skipped candidates are provably non-improving in
    float arithmetic, so pruned solves return bit-identical plans
    (property-tested; [~prune:false] recovers the exhaustive scan).
    @raise Invalid_argument if [work <= 0]. *)

val expected_work_of_chunks :
  context:Dp_context.t -> ages:Age_summary.t -> float list -> float
(** Proposition 3's objective evaluated on an explicit chunk sequence;
    lets tests verify the DP's optimality against brute force. *)
