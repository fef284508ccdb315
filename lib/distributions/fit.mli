(** Maximum-likelihood fitting of lifetime models to failure data.

    The paper's log-based methodology (Section 4.3) uses the empirical
    distribution directly, but its synthetic studies need Weibull
    parameters that {e come from} logs — Schroeder-Gibson fit Weibull
    shapes of 0.33-0.49 to the LANL data, Heath et al. 0.7-0.78.  This
    module closes that loop: fit Exponential / Weibull / LogNormal to
    an interval sample, compare fits, and hand the winner to the
    simulator or the DP policies. *)

type fitted = {
  distribution : Distribution.t;
  log_likelihood : float;
  aic : float;  (** Akaike information criterion: [2 k - 2 ln L]. *)
  ks_statistic : float;
      (** Kolmogorov-Smirnov distance between the fitted CDF and the
          empirical CDF of the sample. *)
}

val exponential : float array -> fitted
(** [lambda = 1 / sample mean].
    @raise Invalid_argument on empty or non-positive data. *)

val weibull : ?shape_bounds:float * float -> float array -> fitted
(** Full MLE: the shape solves
    [sum x^k ln x / sum x^k - 1/k = mean (ln x)]
    (Brent within [shape_bounds], default [(0.05, 20)]), then
    [scale = (mean x^k)^(1/k)]. *)

val lognormal : float array -> fitted
(** [mu, sigma] are the mean and standard deviation of [ln x]. *)

val best_fit : float array -> fitted
(** The candidate with the smallest AIC. *)

