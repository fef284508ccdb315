(** Figures 2, 3, 4 and 6 (and panel (c) of every Appendix B/C
    figure): average makespan degradation vs number of processors, for
    one platform preset, failure model, workload model and overhead
    model. *)

type point = {
  processors : int;
  table : Ckpt_simulator.Evaluation.table;
}

type t = {
  title : string;
  points : point list;
}

val run :
  ?config:Config.t ->
  ?experiment:string ->
  ?workload_model:Ckpt_platform.Workload.model ->
  ?processor_counts:int list ->
  preset:Ckpt_platform.Presets.t ->
  dist_kind:Setup.dist_kind ->
  unit ->
  t
(** The roster includes DPMakespan for Exponential failures only
    (Figures 2-3 include it; the Weibull figures cannot, Section 4.1).  Default processor counts come
    from the preset; quick (non-full) runs subsample them to the ends
    and middle of the range.  [experiment] (default ["scaling"]) names
    this sweep in the resumable store when the config carries a
    [sweep_dir] — callers running several scaling sweeps under one
    store must pass distinct names. *)

val print : t -> csv:string -> unit
(** Render one degradation column per policy (plus LowerBound) against
    processor count, and write the CSV. *)

val figure2 : ?config:Config.t -> unit -> t
val figure3 : ?config:Config.t -> unit -> t
val figure4 : ?config:Config.t -> unit -> t
val figure6 : ?config:Config.t -> unit -> t
