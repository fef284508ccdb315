(** Order-independent exact accumulation of doubles.

    A fixed-point superaccumulator: the running sum is held as an array
    of 32-bit limbs (in int64 cells) spanning the full double exponent
    range, so adding a finite double is *exact* — no rounding ever
    happens on the accumulation side.  Because integer addition is
    associative and commutative and the representation is canonical,
    {!merge} trees of any shape over the same observation multiset
    produce bit-identical accumulators.  This is what lets the
    evaluation harness promise bit-identical distributional tables
    across [CKPT_SWEEP_STRIPE] widths and scheduler choices: the
    reduction order genuinely does not matter.

    The only rounding is the final {!total} readout, which is a
    deterministic function of the exact sum (top-down limb fold,
    within a few ulps of correctly rounded). *)

type t
(** Canonical exact accumulator.  Structural equality ([=]) coincides
    with value equality. *)

val zero : t

val add : t -> float -> t
(** Exact.  Accepts any finite double, positive or negative.
    @raise Invalid_argument on nan or infinite input. *)

val add_sq : t -> float -> t
(** [add_sq t x] adds [x * x] with the rounding error compensated via
    [Float.fma] (2MultFMA), so the squared term is exact whenever
    [x * x] neither overflows nor falls into the subnormal range.  The
    contribution is in every case a deterministic function of [x]
    alone, preserving order-independence.
    @raise Invalid_argument if [x] is not finite or [x * x] overflows. *)

val merge : t -> t -> t
(** Exact sum of the two accumulators; commutative and associative at
    the bit level. *)

val total : t -> float
(** Deterministic float readout of the exact sum. *)

val equal : t -> t -> bool
