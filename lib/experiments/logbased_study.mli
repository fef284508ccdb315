(** Figures 7 and 100: degradation vs processors when failures follow
    the empirical distribution of (synthetic stand-ins for) the LANL
    cluster-18/19 availability logs (Section 6).

    As in the paper: failures strike whole 4-processor nodes; a
    45,208-processor platform uses 11,302 node traces; Liu, Bouguerra
    and DPMakespan are not applicable (they need a parametric or
    rejuvenated model), so the roster is Young, DalyLow, DalyHigh,
    OptExp (fed the empirical MTBF), PeriodLB and DPNextFailure. *)

type cluster = Cluster18 | Cluster19

type point = {
  processors : int;
  table : Ckpt_simulator.Evaluation.table;
}

type t = {
  cluster : cluster;
  empirical_mtbf : float;  (** mean availability interval, seconds *)
  points : point list;
}

val run :
  ?config:Config.t -> ?processor_counts:int list -> cluster:cluster -> unit -> t
(** Default processor counts: 2^12 .. 2^15 (the paper's Figure 7
    x-range; quick runs subsample). *)

val print : ?config:Config.t -> cluster:cluster -> unit -> unit
