(** Experiment-scale knobs.

    The paper runs 600 traces per configuration and sweeps large
    grids; reproducing that verbatim takes CPU-days.  Every experiment
    here accepts explicit parameters, and the defaults are scaled down
    to finish in minutes.  [ckpt experiment] and [ckpt sweep] set the
    scale with [--traces N] and [--full]; the environment sets only the
    root seed, [CKPT_SEED=<int>], and a malformed value (not an
    integer) warns once on stderr and falls back to the default. *)

type t = {
  replicates : int;  (** replicates per configuration; 0 = each study's default. *)
  full : bool;  (** paper-scale defaults (600 traces, full grids). *)
  seed : int64;
  sweep_dir : string option;
      (** when set, studies checkpoint each unit of work here and skip
          completed units on re-run (see {!Sweep_store}).  {!default}
          leaves it [None]: [ckpt sweep --resume DIR] sets it. *)
}

val default : unit -> t
(** Study defaults at the seed [CKPT_SEED] names, read at call time. *)

val quick : t
(** Tiny scale for unit tests: 4 replicates. *)

val scale : t -> quick:int -> full:int -> int
(** Pick a replicate count: [replicates] if positive, else [full]
    under [full], else [quick]. *)
