(** Compressed platform age state for parallel DPNextFailure
    (Section 3.3).

    The exact state of a [p]-processor platform is the vector of times
    [tau_1..tau_p] elapsed since each processor's last failure.
    Evaluating [Psuc] over tens of thousands of processors at every DP
    cell is intractable, so the paper keeps:

    - the [nexact] smallest ages exactly (smallest ages dominate the
      failure probability for decreasing-hazard distributions), and
    - [napprox] "reference" ages for the rest: the smallest and largest
      remaining ages, plus [napprox - 2] survival-interpolated
      quantiles; each remaining processor is mapped to the nearest
      reference, and only per-reference counts are kept.

    The paper uses [nexact = 10], [napprox = 100], and measures a
    worst-case relative error below 0.2% on Psuc at chunk sizes up to
    one platform MTBF. *)

type t = {
  exact : float array;  (** ascending; length <= nexact *)
  references : float array;  (** ascending reference ages *)
  counts : int array;  (** processors mapped to each reference *)
}

type summary = t
(** Alias so {!Incremental} can name the summary type. *)

val default_nexact : int
(** 10, as in the paper. *)

val default_napprox : int
(** 100, as in the paper. *)

val exact_of_ages : float array -> t
(** Lossless summary (every age kept exactly); for small platforms and
    for measuring the approximation error. *)

val build :
  ?nexact:int -> ?napprox:int ->
  Ckpt_distributions.Distribution.t ->
  processors:int ->
  iter_ages:((float -> unit) -> unit) ->
  t
(** [build dist ~processors ~iter_ages] compresses the age vector
    produced by [iter_ages] (which must yield exactly [processors]
    values; two passes are made, no per-processor allocation).
    @raise Invalid_argument on nonsensical [nexact]/[napprox]. *)

val processors : t -> int

val shift_evaluator : Ckpt_distributions.Distribution.t -> t -> float -> float
(** [shift_evaluator dist s] is {!log_survival_shift}[ dist s] with the
    [H(tau_j)] halves of every term hoisted out at closure-creation
    time — bit-identical results, half the hazard evaluations.  Use it
    when probing many shifts of one summary (the DP's G table). *)

val psuc : Ckpt_distributions.Distribution.t -> t -> elapsed:float -> duration:float -> float
(** Probability that no summarized processor fails during
    [duration], given all have already survived [elapsed] seconds past
    their recorded ages. *)

(** Persistent age state maintained across failures.

    Between failures every alive processor ages uniformly, so the
    sorted order of birth instants (instant each unit's current
    lifetime began) is invariant: a failure replaces exactly one birth.
    The engine keeps one of these per execution and updates it in
    O(log p) per failure; [summarize] then compresses it in
    O(nexact + napprox · log p) — no O(p) pass, no per-decision
    allocation proportional to the platform.

    [summarize] is bit-identical to {!build} over the same age multiset
    (property-tested); both use the same reference construction and the
    same order-independent tie rule at the exact threshold. *)
module Incremental : sig
  type t

  val create : births:float array -> t
  (** [create ~births] with one birth instant per failure unit (the
      engine's [lifetime_start] vector; a unit that never failed has
      birth 0).  Copies the array.
      @raise Invalid_argument on an empty array. *)

  val units : t -> int

  val update : t -> old_birth:float -> new_birth:float -> unit
  (** Replace one unit's birth instant after its failure ([new_birth] =
      failure date + downtime).  O(log p) search plus a shift of the
      ranks in between.
      @raise Invalid_argument if [old_birth] is not a current birth. *)

  val summarize :
    ?nexact:int ->
    ?napprox:int ->
    t ->
    Ckpt_distributions.Distribution.t ->
    now:float ->
    summary
  (** The {!build}-equivalent summary of the platform at instant [now]
      (unit age = [max 0 (now - birth)]). *)
end
