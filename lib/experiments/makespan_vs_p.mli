(** Appendix D (Figures 98-99): absolute average makespan vs processor
    count for each application profile, under OptExp (Exponential
    failures, constant or platform-dependent checkpoint cost) and
    under DPNextFailure (Weibull) — and the induced optimal
    processor-enrollment count, the paper's Section 8 observation that
    with failures the expected makespan may be minimized by {e fewer}
    than all processors. *)

type curve = {
  workload_name : string;
  points : (int * float) list;  (** (processors, average makespan s) *)
  profiles : (int * Ckpt_simulator.Evaluation.waste_profile) list;
      (** waste decomposition at each point, same keys as [points]. *)
  best_processors : int;  (** argmin of the curve *)
}

type t = {
  title : string;
  curves : curve list;
}

val policy_makespan :
  ?store:Sweep_store.t ->
  experiment:string ->
  scenario:Ckpt_simulator.Scenario.t ->
  policy:Ckpt_policies.Policy.t ->
  replicates:int ->
  unit ->
  (float * Ckpt_simulator.Evaluation.waste_profile) option
(** {!Ckpt_simulator.Evaluation.mean_and_profile} of one policy
    through {!Sweep_store.vectors}, keyed by the policy's recipe. *)

val run :
  ?config:Config.t ->
  ?processor_counts:int list ->
  preset:Ckpt_platform.Presets.t ->
  dist_kind:Setup.dist_kind ->
  policy_kind:[ `Optexp | `Dp_next_failure ] ->
  unit ->
  t

val figure98 : ?config:Config.t -> proportional:bool -> unit -> t
(** OptExp, Exponential, MTBF 125 y; panel (a) constant / (b)
    proportional overhead. *)

val figure99 : ?config:Config.t -> unit -> t
(** DPNextFailure, Weibull k = 0.7. *)

val print : t -> csv:string -> unit
