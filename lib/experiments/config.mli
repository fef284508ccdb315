(** Experiment-scale knobs.

    The paper runs 600 traces per configuration and sweeps large
    grids; reproducing that verbatim takes CPU-days.  Every experiment
    here accepts explicit parameters, and the defaults are scaled down
    to finish in minutes.  Environment overrides:

    - [CKPT_TRACES=<n>]   replicates per configuration;
    - [CKPT_FULL=1]       paper-scale defaults (600 traces, full grids);
    - [CKPT_SEED=<int>]   root seed;
    - [CKPT_SWEEP_DIR=<dir>]  resumable sweep store (see {!Sweep_store}).

    A malformed [CKPT_TRACES] (not an integer, or negative) or
    [CKPT_SEED] (not an integer) warns once per value on stderr and
    falls back to the default; [CKPT_TRACES=0] means the default and
    stays silent. *)

type t = {
  replicates : int;
  full : bool;
  seed : int64;
  sweep_dir : string option;
      (** when set, studies checkpoint each unit of work here and skip
          completed units on re-run (see {!Sweep_store}). *)
}

val default : unit -> t
(** Resolved from the environment at call time. *)

val quick : t
(** Tiny scale for unit tests: 4 replicates. *)

val scale : t -> quick:int -> full:int -> int
(** Pick a replicate count: the explicit [CKPT_TRACES] if set,
    else [full] under [CKPT_FULL], else [quick]. *)
