(** The paper's conclusion extension: progress-dependent checkpoint
    and recovery costs.

    Model: an application whose checkpoint footprint grows with its
    progress (adaptive mesh refinement, particle accumulation):
    [C(progress) = R(progress) = C0 (0.5 + progress)] — half the
    nominal cost at start, 1.5x at the end, averaging the nominal
    [C0 = 600 s].  Three policies compete under the profiled engine:

    - OptExp with the nominal (average) cost — what a constant-cost
      model would deploy;
    - DPNextFailure with the nominal cost (age-adaptive but
      cost-oblivious);
    - DPNextFailure given the profile (the extension: replans with the
      cost at its current progress). *)

type result = {
  policy_name : string;
  average_makespan : float;
  average_degradation : float;
}

val run : ?config:Config.t -> ?processors:int -> unit -> result list
(** Petascale platform, Weibull k = 0.7, embarrassingly parallel. *)

val print : ?config:Config.t -> unit -> unit
(** Prints each contender's average makespan and degradation and
    writes them to [variable_cost.csv] under {!Report.results_dir}. *)
