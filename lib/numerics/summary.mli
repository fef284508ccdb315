(** Online and batch summary statistics (Section 4.1 reports averages
    and standard deviations of makespan degradations). *)

type t
(** Online accumulator (Welford's algorithm): numerically stable mean
    and variance in one pass. *)

val empty : t
val add : t -> float -> t
val add_all : t -> float list -> t

(** [merge a b] summarizes the union of the observations behind [a] and
    [b] (Chan et al.'s pairwise Welford combine): counts add, min/max
    combine exactly, mean and variance agree with a single sequential
    pass up to floating-point rounding.  Either side may be {!empty},
    in which case the other side is returned unchanged.  This is the
    reduction step of the parallel evaluation harness: per-replicate
    accumulators are merged in replicate order. *)
val merge : t -> t -> t
val count : t -> int
val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two observations. *)

val std : t -> float
val min_value : t -> float
val max_value : t -> float

val of_array : float array -> t

val mean_confidence_interval : ?confidence:float -> t -> float * float
(** [(lo, hi)] for the mean at the given [confidence] (default 0.95),
    using the normal approximation [mean ± z * std / sqrt n] —
    adequate for the sample sizes of the evaluation methodology
    (tens to hundreds of traces).  [(nan, nan)] with fewer than two
    observations.
    @raise Invalid_argument if [confidence] is outside (0, 1). *)

(** Component-wise distributional accumulator over fixed-dimension
    observations — the engine's waste decomposition threaded through
    the evaluation reduce.  Per component it tracks exact sums and
    sums of squares ({!Exact_sum}), exact min/max, and a log-scale
    histogram ({!Log_hist}) for quantile estimates.  Unlike the scalar
    Chan/Welford {!merge} above, [Vector.merge] is exactly commutative
    and associative, so stripe width and scheduler choice cannot
    perturb a single bit of the reduced vector. *)
module Vector : sig
  type t

  val create : dim:int -> t
  (** Fresh accumulator for [dim]-component observations.
      @raise Invalid_argument if [dim < 1]. *)

  val dim : t -> int
  val count : t -> int

  val add : t -> float array -> t
  (** Record one observation.
      @raise Invalid_argument on dimension mismatch or any non-finite
      component (a non-finite metric would mean the engine's accounting
      identity already failed — refuse loudly rather than poison the
      table). *)

  val merge : t -> t -> t
  (** Exact: commutative and associative at the bit level.
      @raise Invalid_argument on dimension mismatch. *)

  val mean : t -> int -> float
  (** Mean of component [i], from the exact sum; [nan] when empty. *)

  val variance : t -> int -> float
  (** Unbiased sample variance of component [i]; [nan] below two
      observations. *)

  val std : t -> int -> float
  val min_value : t -> int -> float
  val max_value : t -> int -> float

  val quantile : t -> int -> float -> float
  (** Histogram-estimated [p]-quantile of component [i] (geometric
      bucket midpoint clamped into the observed range); [nan] when
      empty. *)

  val ci_half_width : ?confidence:float -> t -> int -> float
  (** Normal-approximation half-width [z * std / sqrt n] for the mean
      of component [i]; [nan] below two observations.
      @raise Invalid_argument if [confidence] is outside (0, 1). *)

  val equal : t -> t -> bool
  (** Bit-level equality: every float compared by its bits, exact sums
      and histograms structurally. *)
end

val quantile : float array -> float -> float
(** [quantile data p] is the [p]-quantile ([0 <= p <= 1]) with linear
    interpolation between order statistics.  [data] need not be sorted;
    it is not modified.
    @raise Invalid_argument on empty data or [p] outside [0, 1]. *)

val median : float array -> float
