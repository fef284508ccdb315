(** Worker-process lifecycle for multi-process sweeps
    ([ckpt sweep --workers N]).

    The parent spawns [N] copies of the current executable (fork +
    exec — never a bare fork, which the OCaml 5 runtime forbids once
    domains exist), each marked by the [CKPT_SWEEP_WORKER] environment
    variable.  Workers re-run the same deterministic experiment
    enumeration against the shared {!Sweep_store} in worker mode, so
    unit distribution needs no coordinator: claim markers in the store
    directory arbitrate who computes what, results land idempotently
    under content keys, and crashed workers' stale claims are reaped.
    The parent waits for every worker, then runs the canonical
    serial-order pass itself — loading completed units, computing any
    the crashed workers left — so worker count and worker failures can
    change only the wall-clock time, never a byte of output. *)

val env_var : string
(** ["CKPT_SWEEP_WORKER"] — set (to the worker index) in worker
    processes only. *)

val workers_var : string
(** ["CKPT_SWEEP_WORKERS"] — default worker count for [ckpt sweep]. *)

val default_workers : unit -> int
(** [CKPT_SWEEP_WORKERS] when set to a positive integer, 1 otherwise. *)

val worker_index : unit -> int option
(** [Some index] when this process is a sweep worker. *)

val log_path : dir:string -> index:int -> string
val stats_path : dir:string -> index:int -> string

val results_scratch : dir:string -> index:int -> string
(** Per-worker scratch directory for the worker's (discarded) CSV
    output, inside the store directory. *)

val run_as_worker : store:Sweep_store.t -> index:int -> (unit -> unit) -> unit
(** Run [f] — the study pass — in worker mode.  Repeats the pass while
    it both computed units and found units busy elsewhere (cheap tail
    rebalancing: completed units just load on a re-pass), then writes
    [worker-<index>.stats.json] into the store directory.  On exception
    the stats file is still written before the exception escapes. *)

type outcome = Finished | Failed of int | Signaled of int

type result = {
  r_index : int;
  r_pid : int;
  r_outcome : outcome;
  r_seconds : float;  (** worker-reported wall time, else parent-measured *)
  r_stats : Sweep_store.stats option;
      (** [None] when the worker died before writing its stats file *)
}

type summary = {
  workers : result list;  (** in index order *)
  crashed : int;  (** workers that did not exit 0 *)
  claims_reaped : int;  (** leftover claims removed after all exits *)
}

val launch :
  store:Sweep_store.t ->
  workers:int ->
  exe:string ->
  args:string array ->
  ?progress:(alive:int -> units:int -> unit) ->
  unit ->
  summary
(** Spawn [workers] copies of [exe] (argv [args]), each with
    [CKPT_SWEEP_WORKER=<index>], [CKPT_DOMAINS] split evenly across
    workers, stdout/stderr to [worker-<index>.log] and
    [CKPT_RESULTS_DIR] pointed at a per-worker scratch directory —
    both inside the store directory.  When [CKPT_SPANS_OUT=f] is set,
    worker [i] exports its spans to [f.worker-NN] ([NN] = [i] in two
    digits) instead.  Waits for every child (classifying clean exits,
    failures and signals), reads the stats files, reaps all leftover
    claims, and returns the summary.
    [progress] is called whenever the number of completed units in the
    store changes.  The caller runs the canonical pass after this
    returns.
    @raise Invalid_argument if [workers < 1]. *)
