(** Paired significance of the paper's headline comparison.

    The paper reports DPNextFailure beating the best periodic
    heuristic "by at least 4.38%" on the largest Petascale platform;
    this study re-states that claim with a paired sign test over
    shared trace sets (DPNextFailure vs OptExp and vs Young), at a
    configurable scale. *)

val run :
  ?config:Config.t -> ?processors:int -> ?shape:float -> unit ->
  Ckpt_simulator.Significance.t list

val print : ?config:Config.t -> unit -> unit
(** Prints each paired comparison and writes [significance.csv] (one
    row per {!Ckpt_simulator.Significance.t}) under
    {!Report.results_dir}. *)
