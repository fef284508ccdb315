(** Decision-point rationale: the expected-value quantities behind a
    policy's chunk choice, evaluated at the observed platform age
    vector — the numbers [ckpt explain] prints next to each decision.

    Everything here is computed from the same
    {!Ckpt_core.Age_summary} compression the DP policies plan with
    (and the same [Psuc] log-survival shift), so the rationale is the
    policy's own view of the platform, not a parallel approximation.
    These are explanatory quantities: they annotate decisions, they do
    not participate in them, and the simulated execution is
    bit-identical with or without them. *)

type t = {
  hazard : float;
      (** instantaneous platform failure rate at the decision (sum of
          per-unit hazards at their observed ages), per second. *)
  expected_ttf : float;
      (** expected time to the next platform failure,
          [E(min residual life)], seconds. *)
  window : float;
      (** the exposure the probabilities below refer to — normally
          chunk + checkpoint cost, seconds. *)
  commit_probability : float;
      (** [Psuc(window)]: probability no failure unit fails within the
          window, i.e. the chunk and its checkpoint commit. *)
  expected_loss : float;
      (** expected execution time lost {e given} a failure strikes
          within the window, [E(T | T < window)]; [nan] when the
          failure probability underflows to 0. *)
}

val commit_probability :
  Ckpt_distributions.Distribution.t -> Ckpt_core.Age_summary.t -> window:float -> float

val expected_loss :
  Ckpt_distributions.Distribution.t -> Ckpt_core.Age_summary.t -> window:float -> float

val of_observation :
  ?nexact:int ->
  ?napprox:int ->
  Ckpt_distributions.Distribution.t ->
  Policy.observation ->
  window:float ->
  t
(** Summarize the observation's ages ({!Policy.observation.summarize},
    paper defaults [nexact = 10], [napprox = 100]) and evaluate
    {!of_summary} on it. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering, as in the [ckpt explain] timeline. *)
