(** Paired statistical comparison of two checkpointing policies.

    The evaluation methodology runs every policy on the {e same} trace
    sets, so policies can be compared pairwise per trace — far more
    sensitive than comparing averages.  This module reports the paired
    differences and an exact two-sided sign test, so claims like
    "DPNextFailure beats OptExp" come with a p-value rather than a
    pair of noisy means. *)

type t = {
  policy_a : string;
  policy_b : string;
  paired_runs : int;  (** trace sets where both policies completed. *)
  mean_difference : float;  (** mean (makespan A - makespan B), seconds. *)
  mean_ratio : float;  (** mean of per-trace makespan A / makespan B. *)
  a_wins : int;  (** traces where A finished strictly earlier. *)
  b_wins : int;
  ties : int;
  sign_test_p : float;
      (** two-sided exact binomial p-value of the win/loss split under
          the null "either policy equally likely to win"; ties are
          discarded, as is standard.  [1.] when there are no
          informative pairs. *)
}

val of_makespans : a:string -> b:string -> (float * float) array -> t
(** The paired summary of policies [a] and [b] from their makespans on
    each shared trace set, in replicate order.  A non-finite makespan
    marks a failed run; only trace sets where both completed pair. *)

val binomial_two_sided_p : wins:int -> losses:int -> float
(** The underlying exact test, exposed for direct use and testing:
    P(|X - n/2| >= |wins - n/2|) for X ~ Binomial(n, 1/2). *)

val pp : Format.formatter -> t -> unit
