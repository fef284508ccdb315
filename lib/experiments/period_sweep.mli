(** Appendix A (Figures 8-9) and panels (a)/(b) of Appendix B/C:
    average makespan degradation of the plain periodic policy as the
    period is multiplied by 2^f, f = -4..4 (1-processor) or -8..8
    (parallel), around OptExp's period — the "PeriodVariation" curve —
    together with each heuristic's flat reference level. *)

type t = {
  title : string;
  factors : float list;  (** log2 of the multiplicative factor *)
  sweep : (float * float) list;  (** (log2 factor, avg degradation) *)
  references : (string * float) list;
      (** each heuristic's average degradation on the same traces *)
}

val run :
  ?config:Config.t ->
  ?log2_range:int ->
  experiment:string ->
  scenario:Ckpt_simulator.Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  unit ->
  t
(** The sweep's periodic policies join [policies] in one degradation
    table, checkpointed under [experiment] (plus the swept periods)
    when the config carries a sweep store. *)

val sequential :
  ?config:Config.t -> dist_kind:Setup.dist_kind -> mtbf:float -> unit -> t
(** Figures 8 (Exponential) / 9 (Weibull k = 0.7), one MTBF at a
    time. *)

val print : t -> csv:string -> unit
