(** DPMakespan (Algorithm 1).

    Minimizes the expected makespan for an arbitrary inter-arrival
    distribution by dynamic programming over quantized states
    [(x, b, y)]: [x] quanta of work remain, and the time since the
    last failure is [tau0 + y u] if [b] (no failure yet) or
    [R + y u] otherwise (the lifetime restarts at the beginning of the
    recovery period).

    Two points the paper's pseudo-code leaves implicit are handled
    explicitly here:

    - the post-recovery state [(x, b=0, y=0)] references itself through
      its own failure branch, so its Bellman equation is solved in
      closed form per candidate chunk before dependent states are
      filled;
    - [E(Tlost)] evaluations are cached on a geometric age grid (they
      vary slowly with age), keeping the DP tractable for Weibull
      failures.

    For parallel jobs this DP is only valid under the rejuvenate-all
    assumption: pass the aggregated platform distribution
    ({!Ckpt_distributions.Distribution.min_of_iid}) in the context, as
    the paper's simulations do. *)

type t
(** A solved instance (memoized value table). *)

val default_cap_states : int
(** 2000: {!solve}'s default [cap_states]. *)

val default_chunk_factor : float
(** 6: {!solve}'s default [chunk_factor]. *)

val solve :
  ?quantum:float ->
  ?cap_states:int ->
  ?chunk_factor:float ->
  context:Dp_context.t ->
  work:float ->
  initial_age:float ->
  unit ->
  t
(** [solve ~context ~work ~initial_age ()] prepares the DP for [work]
    seconds of work with [tau0 = initial_age].

    The [quantum] defaults to a third of Young's period
    [sqrt (2 C mu)] — fine enough to express the optimal chunk — but
    is coarsened so the work dimension stays below [cap_states]
    (default 2000).  The chunk search at each state is capped at
    [chunk_factor] (default 6) Young periods: the per-chunk cost
    [psi] is strictly convex with its minimum near one Young period,
    so far larger chunks are never optimal; the cap turns the paper's
    O((W/u)^3) search into a tractable one without affecting the
    optimum in practice (tests compare against the uncapped search on
    small instances).

    Unlike DPNextFailure's chunk search, the argmin here is not
    monotone in remaining work (the optimal composition jumps at
    chunk-count transitions), so no monotone pruning is applied.  The
    solver's speed comes from its layout instead: solved states live in
    dense per-[b] pages indexed by row offset, allocated when a state
    of the page is first solved (memory follows the states reached),
    and the success probabilities of every candidate chunk and the
    E(Tlost) age bucket are computed once per age [(b, y)] and shared
    by every [x] row.

    States are solved lazily, depth first, and that order is part of
    the result: an E(Tlost) entry is cached per (chunk, 5% age bucket)
    at the {e first} age that needs it, so a different evaluation order
    changes the low bits of the makespan.

    Instances whose elapsed-quanta coordinate [y] could reach [2^31]
    (a checkpoint-to-quantum ratio too large for the work) are
    rejected up front.
    @raise Invalid_argument if [work <= 0], if [work / quantum] needs
    [2^30] states or more, or if [y] could reach [2^31]. *)

val quantum : t -> float
val expected_makespan : t -> float
(** [E(T_opt(W | tau0))], the DP's optimal objective value. *)

(** {1 Following the plan}

    The optimal strategy is state-dependent; a cursor tracks the DP
    state across the events of an execution. *)

type cursor

val start : t -> cursor
val remaining_work : cursor -> float
val next_chunk : cursor -> float
(** Chunk size (work seconds) prescribed at the cursor's state; [0.]
    once no work remains. *)

val advance_success : cursor -> cursor
(** Move past a successfully executed and checkpointed {!next_chunk}. *)

val advance_failure : cursor -> cursor
(** Move to the post-recovery state after a failure (work unchanged). *)
