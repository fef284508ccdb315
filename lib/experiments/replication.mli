(** Section 8 (future work, implemented as an extension): replicate
    the job on the two halves of the platform, synchronizing after
    each checkpoint.

    Model: the two replicas each execute every chunk on [p/2]
    processors; a chunk commits as soon as either replica checkpoints
    it (the laggard adopts the checkpoint).  If both replicas are
    struck, the chunk is lost and execution resumes after the later
    failure plus downtime and recovery.  Replica repair overlaps with
    the survivor's execution, so it costs nothing when at least one
    replica survives — an optimistic simplification, stated in
    DESIGN.md, adequate for the qualitative question the paper poses
    (does replication beat enrolment of the whole platform?). *)

type result = {
  full_platform_makespan : float;  (** periodic policy on p procs *)
  half_platform_makespan : float;  (** same on p/2 procs *)
  replicated_makespan : float;  (** two synchronized p/2 replicas *)
}

val run :
  ?config:Config.t ->
  ?processors:int ->
  preset:Ckpt_platform.Presets.t ->
  dist_kind:Setup.dist_kind ->
  unit ->
  result
(** Averages over the configured replicates; the checkpoint period is
    OptExp's for each configuration. *)

val print : ?config:Config.t -> unit -> unit
(** Runs the study on the Petascale preset with Weibull k = 0.7 (where
    the question is interesting) and Exponential failures, prints the
    three makespans per distribution and writes them, in seconds, to
    [replication.csv] under {!Report.results_dir}. *)
