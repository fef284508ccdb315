(** Ablations of DPNextFailure's approximation knobs (Section 3.3):

    - the age-summary size ([nexact] exact ages + [napprox]
      references), including a direct measurement of the paper's
      claim that the worst relative error on Psuc stays below 0.2%
      for chunks up to one platform MTBF;
    - the work-truncation factor ([min (omega, f * MTBF/p)]);
    - the DP resolution ([max_states]). *)

type psuc_error_point = {
  chunk_over_mtbf : float;  (** chunk duration / platform MTBF *)
  relative_error : float;  (** |approx - exact| / exact *)
}

val psuc_approximation_error :
  ?config:Config.t ->
  ?nexact:int ->
  ?napprox:int ->
  ?processors:int ->
  unit ->
  psuc_error_point list
(** Reproduces the Section 3.3 accuracy study: processor ages are
    taken from a simulated Petascale Weibull platform one failure-rich
    year in; Psuc over the full exact age vector is compared with the
    summarized one for chunks of 2^-i MTBF, i = 0..6. *)

val print : ?config:Config.t -> unit -> unit
