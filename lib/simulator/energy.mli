(** Energy accounting — the paper's stated future-work direction
    ("checkpointing strategies that can trade off a longer execution
    time for a reduced energy consumption", Section 8), implemented as
    an extension.

    The engine's metrics partition the makespan into computing
    (useful + wasted), I/O (checkpoints + recoveries) and stalled
    (downtime) phases; energy is the per-processor power of each phase
    integrated over it and summed over the enrolled processors. *)

type power = {
  compute : float;  (** W per processor while executing chunks. *)
  io : float;  (** W per processor during checkpoint/recovery I/O. *)
  idle : float;  (** W per processor while stalled by a downtime. *)
}

val default_power : power
(** 120 W compute / 40 W I/O / 25 W idle per processor — a plausible
    HPC node budget; override for real machines. *)

val create : compute:float -> io:float -> idle:float -> power
(** @raise Invalid_argument on negative power. *)

val of_metrics : power -> processors:int -> Engine.metrics -> float
(** Total energy in joules for one execution. *)
