(** Terminal line charts for the paper's figures.

    The studies print their series as columns; this renders the same
    data as a character-cell chart (one glyph per series, shared
    canvas, a legend, linear or log-2 x-axis), so
    [dune exec bin/ckpt.exe -- experiment fig4] shows the *shape* the
    paper's Figure 4 shows: flat DPNextFailure under rising periodic
    heuristics. *)

type options = {
  width : int;  (** canvas columns (default 72) *)
  height : int;  (** canvas rows (default 18) *)
  log_x : bool;  (** place points by log2 of the abscissa *)
  y_min : float option;  (** clip/extend the y-range *)
  y_max : float option;
}

val default_options : options

val render : ?options:options -> Report.series list -> string
(** Multi-series chart.  NaN points are skipped.  Series beyond the
    glyph alphabet reuse glyphs.  Returns a string ending in a legend
    (one line per series).
    @raise Invalid_argument if every point of every series is NaN or
    the series list is empty. *)

val print : ?options:options -> Report.series list -> unit
