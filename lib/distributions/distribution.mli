(** Failure inter-arrival time distributions.

    Everything the checkpointing analysis needs from a distribution of
    a positive random variable [X] (a processor lifetime):

    - the survival function [S(t) = P(X >= t)] and its conditional
      version [Psuc(x|tau) = P(X >= tau + x | X >= tau)] (Section 2.2),
    - the expected time lost within a window,
      [E(Tlost(x|tau)) = E(X - tau | tau <= X < tau + x)] (Section 2.3),
    - quantiles (used by the DPNextFailure reference-age approximation,
      Section 3.3),
    - hazard rates (used by the Liu heuristic),
    - sampling (used for trace generation, Section 4.3).

    Distributions are plain records of closures; closed forms can
    override the numeric defaults where available. *)

type t = {
  name : string;
  mean : float;  (** [E(X)]; the processor MTBF excluding downtime. *)
  pdf : float -> float;  (** Density, [0.] for negative arguments. *)
  cumulative_hazard : float -> float;
      (** [H(t) = -log S(t)]; must be 0 at 0, nondecreasing.  Working
          with [H] keeps conditional survival well-conditioned even
          when both survivals are close to 1. *)
  quantile : float -> float;
      (** Inverse CDF on (0, 1): [quantile p] is the smallest [t] with
          [F(t) >= p]. *)
  sample : Ckpt_prng.Rng.t -> float;
  tlost_override : (age:float -> window:float -> float) option;
      (** Closed form for {!expected_tlost} when available. *)
  hazard_override : (float -> float) option;
      (** Closed form for {!hazard} when available. *)
}

val cdf : t -> float -> float
(** [cdf t x = 1 - exp (-H x)]. *)

val survival : t -> float -> float
(** [survival t x = exp (-H x) = P(X >= x)]. *)

val hazard : t -> float -> float
(** Instantaneous failure rate [pdf x / survival x] (or the closed-form
    override). *)

val conditional_survival : t -> age:float -> duration:float -> float
(** [conditional_survival t ~age ~duration] is
    [Psuc(duration | age) = P(X >= age + duration | X >= age)],
    computed as [exp (H age - H (age + duration))]. *)

val expected_tlost : t -> age:float -> window:float -> float
(** [expected_tlost t ~age ~window] is
    [E(X - age | age <= X < age + window)]: the expected amount of
    computation lost when a failure is known to strike within the
    window.  Numeric (32-point Gauss-Legendre on the window, split into
    panels) unless a closed form is supplied. *)

val min_of_iid : t -> int -> t
(** [min_of_iid t n] is the distribution of the minimum of [n] iid
    copies of [t]: the first platform-level failure when all [n]
    processors are fresh (the rejuvenate-all model of Section 3.1).
    Sampling goes through the quantile to stay O(1) in [n].
    @raise Invalid_argument if [n <= 0]. *)

val survival_quantile : t -> float -> float
(** [survival_quantile t q] is the [t] with [P(X >= t) = q]; the
    "quantile" in the paper's reference-age formula of Section 3.3. *)

val check : t -> (string * bool) list
(** Lightweight self-diagnostics (monotonicity, normalization at a few
    points); each pair is (description, passed).  Used by tests. *)
