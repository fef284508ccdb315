(** Uniform textual/CSV output for experiment results. *)

type series = {
  label : string;
  points : (float * float) list;  (** (abscissa, value); NaN = absent *)
}

val print_header : string -> unit
(** Banner with the experiment id and title. *)

val print_series : x_label:string -> y_label:string -> series list -> unit
(** Columnar rendering: one row per abscissa, one column per series
    (the textual equivalent of a paper figure). *)

val print_table : Ckpt_simulator.Evaluation.table -> unit

val degradation_series :
  (float * Ckpt_simulator.Evaluation.table) list -> series list
(** One series per policy (LowerBound first) across a sweep of
    evaluation tables: points are (abscissa, average degradation),
    NaN where the policy completed no run. *)

val csv_of_series :
  ?extra_header:string list ->
  ?extra_cells:(float -> string list) ->
  x_label:string ->
  series list ->
  string
(** One row per abscissa: [%g] values, one column per series, an empty
    cell where a series has no (or a NaN) value; then the
    [extra_header] columns, filled per abscissa by [extra_cells]
    (already rendered, one per header). *)

val profile_columns : string list
(** Column names of the distributional waste-profile block appended to
    study CSVs, in emission order: mean/CI/quantile makespans, the
    degradation CI, waste decomposition in mean seconds and as
    fractions of the mean makespan
    ({!Ckpt_simulator.Evaluation.waste_profile}). *)

val float_cell : float -> string
(** [%.10g] for a finite value, the empty string otherwise: no CSV
    cell ever reads "nan". *)

val csv_of_rows : header:string list -> string list list -> string
(** Comma-separated lines: the header, then one line per row of
    already rendered cells. *)

val profile_values : Ckpt_simulator.Evaluation.waste_profile option -> string list
(** Rendered cells matching {!profile_columns}: [%.10g] for finite
    values, the empty string for non-finite ones (NaN/inf) or a
    [None] profile — no CSV cell ever reads "nan". *)

val csv_of_table : Ckpt_simulator.Evaluation.table -> string
(** One row per policy (LowerBound first): name, average degradation,
    standard deviation, average makespan, successes, failure stats,
    then the {!profile_columns} block. *)

val csv_of_tables :
  x_label:string -> (float * Ckpt_simulator.Evaluation.table) list -> string
(** Sweep CSV: the leading columns are byte-identical to
    [csv_of_series ~x_label (degradation_series tables)] (one row per
    abscissa, one degradation column per policy), followed by the
    {!profile_columns} block per policy, columns named
    ["<policy>_<column>"]. *)

val write_csv : ?meta:(string * string) list -> path:string -> string -> unit
(** Atomically write the contents ({!Ckpt_store.Atomic_file.write}:
    parent directories created as needed, tempfile + fsync + rename,
    so a crash or concurrent reader never sees a torn CSV), plus a
    provenance sidecar [<path>.meta.json]
    ({!Ckpt_telemetry.Provenance}) with [meta] as its caller-supplied
    parameters (e.g. scenario settings, seeds). *)

val results_dir : unit -> string
(** Where experiment CSVs land: [$CKPT_RESULTS_DIR] or ["results"]. *)
