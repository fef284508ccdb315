(** A fully specified simulation setting: job + trace-generation
    protocol (Section 4.3). *)

type t = {
  job : Ckpt_policies.Job.t;
  seed : int64;
  horizon : float;  (** trace horizon [h]. *)
  start_time : float;
      (** job start [t0] within the horizon; 1 year for parallel
          platforms (avoids synchronized-birth effects), 0 for the
          single-processor study. *)
}

val create : ?seed:int64 -> ?horizon:float -> ?start_time:float -> Ckpt_policies.Job.t -> t
(** Defaults follow the paper: seed [0x5EEDL]; [horizon] = 1 year and
    [start_time] = 0 for one processor, 11 years and 1 year otherwise.
    @raise Invalid_argument if [start_time >= horizon]. *)

val traces : t -> replicate:int -> Ckpt_failures.Trace_set.t
(** The failure traces of replicate [replicate]: one renewal trace per
    {e failure unit} of the job (the job's [group_size] processors
    share a unit).  Deterministic in [(seed, replicate, unit)], so
    runs with fewer processors see a prefix of the traces of runs with
    more (the paper's coherence requirement when varying [p]).
    Generated afresh on every call: a consumer that reuses a set keeps
    it itself. *)

val initial_lifetime_starts : t -> Ckpt_failures.Trace_set.t -> float array
(** Per-failure-unit instants at which the lifetime in progress at
    [start_time] began: last failure before [t0] plus the downtime
    (lifetimes restart at the beginning of recovery), or 0 for a unit
    that never failed. *)

val trace_sets :
  t -> first:int -> len:int -> Ckpt_failures.Trace_set.t array * float array array
(** The trace sets of replicates [first, first + len), in order, and
    their {!initial_lifetime_starts}, under one [failures.trace_gen]
    span: the block a stripe or a period search steps its runs on. *)
