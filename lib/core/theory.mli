(** Closed-form results for Exponential failures.

    Theorem 1 (sequential): with failure rate [lambda], work [W],
    checkpoint cost [C], the optimal strategy splits [W] into
    [K* in {max 1 (floor K0), ceil K0}] equal chunks, where

    [K0 = lambda W / (1 + L(-exp(-lambda C - 1)))]

    ([L] = Lambert W, principal branch), whichever minimizes
    [psi K = K (exp (lambda (W/K + C)) - 1)].  The optimal expected
    makespan is

    [E(T_opt) = K* exp(lambda R) (1/lambda + D) (exp (lambda (W/K* + C)) - 1)].

    Proposition 5 (parallel): substitute [lambda -> p lambda],
    [W -> W(p)], [C -> C(p)], [R -> R(p)]. *)

val expected_tlost : rate:float -> window:float -> float
(** Lemma 1: [E(Tlost(w)) = 1/lambda - w/(exp(lambda w) - 1)] — the
    expected computation time lost given a failure strikes within the
    window. *)

val expected_trec : rate:float -> recovery:float -> downtime:float -> float
(** Lemma 1 / Proposition 1:
    [E(Trec) = D + R + (1 - e^(-lambda R))/e^(-lambda R) *
               (D + E(Tlost(R)))],
    which simplifies to [D + (e^(lambda R) - 1)(D + 1/lambda)]. *)

val chunk_count_real : rate:float -> work:float -> checkpoint:float -> float
(** [K0], the unconstrained real-valued optimum. *)

val psi : rate:float -> work:float -> checkpoint:float -> int -> float
(** [psi K = K (exp (lambda (W/K + C)) - 1)], the quantity minimized
    by the optimal chunk count. *)

val optimal_chunk_count : rate:float -> work:float -> checkpoint:float -> int
(** [K*]: the integer neighbor of [K0] minimizing [psi] (at least 1). *)

val optimal_period : rate:float -> work:float -> checkpoint:float -> float
(** [W / K*]: the chunk size of the optimal periodic strategy. *)

val optimal_expected_makespan :
  rate:float -> work:float -> checkpoint:float -> recovery:float -> downtime:float -> float
(** Theorem 1's [E(T_opt(W))]. *)

val expected_makespan_single_chunk :
  rate:float -> work:float -> checkpoint:float -> recovery:float -> downtime:float -> float
(** [E(T_id(W))]: the expected makespan of the naive execute-all-in-
    one-chunk strategy, used in the proof of Theorem 1 (finite upper
    bound) and handy as a sanity bound in tests. *)

val expected_makespan_for_count :
  rate:float -> work:float -> checkpoint:float -> recovery:float -> downtime:float ->
  int -> float
(** Expected makespan when splitting into exactly [k] equal chunks:
    [k (1/lambda + E(Trec)) (exp (lambda (W/k + C)) - 1)].
    @raise Invalid_argument if [k <= 0]. *)

(** {1 Parallel jobs (Proposition 5)} *)

val macro_rate : rate:float -> processors:int -> float
(** [p * lambda]: the failure rate of the aggregated macro-processor. *)

val parallel_optimal_chunk_count :
  rate:float -> processors:int -> parallel_work:float -> checkpoint:float -> int
(** [K*] of Proposition 5 for per-processor rate [rate], [W(p) =
    parallel_work] and [C(p) = checkpoint]. *)

val parallel_expected_makespan_macro :
  rate:float -> processors:int -> parallel_work:float -> checkpoint:float ->
  recovery:float -> downtime:float -> float
(** Theorem 1's makespan formula applied to the macro-processor.
    Exact under rejuvenate-all; for failed-only rejuvenation the paper
    notes [E(Trec)] has no closed form (cascading downtimes), so this
    is an approximation there. *)
