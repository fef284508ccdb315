(** Appendices B and C: the full cartesian sweep of
    {platform preset} x {failure model} x {workload model} x
    {overhead model} x {processor MTBF}, each cell producing the
    scaling panel (degradation vs p) of Figures 10-97.

    The complete Petascale grid alone is 2 (overhead) x 6 (workload)
    x 2 (MTBF) x 3 (failure model) = 72 cells; by default a
    representative subset is run (one cell per failure model x
    overhead model), the full grid under [--full]. *)

type cell = {
  preset : Ckpt_platform.Presets.t;
  dist_kind : Setup.dist_kind;
  workload_model : Ckpt_platform.Workload.model;
  mtbf_years : float;
}

val petascale_cells : full:bool -> cell list
val exascale_cells : full:bool -> cell list

val print : ?config:Config.t -> cells:cell list -> unit -> unit
