(** Multicore fan-out for the experiment sweeps.

    Every study in this repository is a sweep of independent
    evaluations (points of a figure, cells of a grid, candidate
    periods, Monte-Carlo replicates).  [parallel_init] fans such a
    sweep over OCaml 5 domains while staying deterministic: work items
    are claimed from an atomic counter, each output slot is written by
    exactly one task, and the caller reduces in index order, so
    results are bit-identical to the sequential run regardless of
    scheduling or domain count.

    One process-wide persistent pool runs every region.  Worker
    domains are spawned once and wait on a condition variable when
    idle.  Live regions sit in one mutex-guarded list, newest first;
    an idle domain takes a seat in the newest region that has one and
    claims its items.
    Nested calls *compose*: a task that itself calls [parallel_init]
    publishes a sub-region that whichever domains the outer sweep
    leaves idle help with, so a narrow or skewed outer sweep does not
    strand the rest of the machine.  A forker that has drained its own
    region helps other regions until its own completes.

    Tasks must not share mutable state (the simulator's runs don't:
    each builds its own policies, traces and engine state).

    Every domain's scheduler states are recorded as
    [Ckpt_telemetry.Span]s of layer [parallel.sched], named for the
    pool's states: [run-task], [scan-hit] / [scan-miss] (a look at the
    region list that took a seat or found none), [publish], [park],
    [unpark] (an instant) and [join-help] (running another region's
    items while joining).  Each pool worker records on track
    [worker<i>], so [CKPT_VERBOSE=1]'s per-study report attributes
    every worker's wall time to these states. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()], overridden by the
    [CKPT_DOMAINS] environment variable when set.  [CKPT_DOMAINS] is
    the total parallelism including the calling domain: the pool keeps
    [CKPT_DOMAINS - 1] persistent workers (growing, never shrinking,
    if later calls ask for more), and [CKPT_DOMAINS=1] runs every
    region inline — the sequential reference of the determinism tests.
    Malformed values ([0], [-3], [abc]) warn once per value on stderr
    and fall back to the hardware default
    ({!Ckpt_telemetry.Provenance.domain_count}). *)

val parallel_init : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init ~domains n f] is [Array.init n f] evaluated by up
    to [domains] participating domains (default
    {!recommended_domains}): the region admits at most [domains - 1]
    helpers besides the caller.  Runs inline as plain [Array.init]
    when [domains <= 1] or [n <= 1].  If any task raises, the region
    stops claiming new work and one of the raised exceptions is
    re-raised — with the failing task's original backtrace — after
    every claimed item has finished.
    @raise Invalid_argument if [n < 0]. *)

val parallel_map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!parallel_init}, preserving order. *)

val pool_workers : unit -> int
(** Worker domains currently spawned by the persistent pool (0 before
    the first pooled region; for telemetry and tests). *)
