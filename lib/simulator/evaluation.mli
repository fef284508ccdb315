(** The paper's evaluation methodology (Section 4.1).

    For a scenario, generate [replicates] trace sets; run every policy
    on every trace set; on each trace set normalize each policy's
    makespan by the best makespan achieved by any {e policy} (the
    omniscient LowerBound is excluded from the minimum but reported,
    normalized, as its own row); average the per-trace degradations.

    Replicate stripes fan out over OCaml 5 domains through
    {!map_stripes} ([CKPT_DOMAINS] sets the width).  Each replicate
    accumulates into its own state and the accumulators merge serially
    in replicate order ({!Ckpt_numerics.Summary.merge}), so the table is
    bit-for-bit identical for every domain count.  Trace generation,
    each policy's stripe pass and the reduce are recorded as
    {!Ckpt_telemetry.Span}s ([failures.trace_gen], [simulator.stripe],
    [simulator.reduce]).

    Every study steps its replicates a stripe (see {!stripe_size}) at
    a time through {!stripe_runs}: one lockstep {!Engine.run_stripe}
    pass per policy, each slot's outcome exactly that replicate's
    execution alone; tables through {!degradation_table} (or
    [Sweep_store.degradation_table]), rows per replicate through
    [Sweep_store.vectors].  No evaluation records a simulated-time
    trace: [ckpt explain] replays one (policy, replicate) into a
    {!Ckpt_telemetry.Tracer} buffer instead. *)

(** Distributional view of a policy's completed runs, derived from the
    exact {!Ckpt_numerics.Summary.Vector} accumulator: makespan
    quantiles (log-histogram estimates), 95% confidence half-widths
    for the mean makespan and mean degradation, and the waste
    decomposition both as mean seconds and as fractions of the mean
    makespan.  The mean seconds satisfy
    [mk_mean = useful_s + checkpoint_s + wasted_s + recovery_s + stall_s]
    up to the engine's ulp-scaled accounting tolerance — enforced
    per-replicate by {!Engine.Accounting_violation}.  Undefined cells
    (e.g. intervals below two runs) are [nan]; renderers print "n/a"
    or an empty CSV cell. *)
type waste_profile = {
  mk_p50 : float;
  mk_p95 : float;
  mk_p99 : float;
  mk_mean : float;  (** mean makespan from the exact sum (seconds). *)
  mk_ci95 : float;  (** 95% CI half-width of the mean makespan. *)
  deg_ci95 : float;  (** 95% CI half-width of the mean degradation. *)
  useful_s : float;
  checkpoint_s : float;
  wasted_s : float;
  recovery_s : float;
  stall_s : float;
  useful_frac : float;
  checkpoint_frac : float;
  wasted_frac : float;
  recovery_frac : float;
  stall_frac : float;
}

type policy_result = {
  policy_name : string;
  average_degradation : float;  (** mean of makespan / best-of-trace. *)
  std_degradation : float;
  average_makespan : float;  (** seconds; over successful runs. *)
  successes : int;  (** trace sets on which the policy produced a run. *)
  average_failures : float;  (** platform failures per successful run. *)
  max_failures : int;
  average_chunks : float;
  min_chunk : float;  (** smallest chunk ever committed (seconds). *)
  max_chunk : float;
  profile : waste_profile option;  (** [None] when no run completed. *)
}

type table = {
  lower_bound : policy_result;  (** the omniscient reference (< 1). *)
  results : policy_result list;  (** one row per policy, input order. *)
  replicates : int;
  usable_replicates : int;
      (** trace sets on which at least one policy completed. *)
}

val degradation_table :
  scenario:Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  replicates:int ->
  table
(** @raise Invalid_argument if [replicates <= 0] or [policies = []]. *)

(** {2 Replicate stripes}

    The reduction above is structured as contiguous {e stripes} of
    replicates ([CKPT_SWEEP_STRIPE] wide, default 16).  A table's
    stripe step ({!table_rows}) writes one row of floats per
    replicate; its stripe partial is the fold of those rows
    ({!partial_of_rows}): replicate outcomes merge in order within
    each stripe, stripe partials merge in stripe order.  The resumable
    sweep harness ({!Ckpt_experiments.Sweep_store}) persists the rows,
    so a table reassembled after an interruption goes through the same
    fold and merge tree and is bit-identical to an uninterrupted
    run. *)

type partial
(** Merged accumulators of one replicate stripe. *)

val stripe_size : unit -> int
(** Current stripe width: [CKPT_SWEEP_STRIPE] when set to a positive
    integer, 16 otherwise.  Re-read per call; a malformed value ([0],
    [-3], [abc]) warns once per value on stderr before falling back,
    since the width is part of every sweep-store key. *)

val stripe_count : replicates:int -> int
(** Number of stripes covering [replicates] at the current width.
    @raise Invalid_argument if [replicates <= 0]. *)

val stripe_bounds : replicates:int -> stripe:int -> int * int
(** [(first, len)] of stripe [stripe] at the current width — the
    replicate indices covered are [first, first + len).  This is the
    unit-granularity contract shared by the compute path
    ({!stripe_partial}) and the sweep store
    ({!Ckpt_experiments.Sweep_store}).
    @raise Invalid_argument on an out-of-range stripe or
    [replicates <= 0]. *)

val map_stripes :
  label:string -> replicates:int -> (stripe:int -> first:int -> len:int -> 'a) -> 'a array
(** [f ~stripe ~first ~len] for every stripe (bounds as in
    {!stripe_bounds}), run in the domain pool, results in stripe order.
    The one stripe fan-out: {!degradation_table} and every
    {!Ckpt_experiments.Sweep_store} entry point go through it.  Under
    [CKPT_VERBOSE=1] every call prints its own replicate progress
    ([[eval] LABEL k/R replicates], one line per finished stripe),
    nested in a study's fan-out or not, at every domain count; the
    sweep store labels with its experiment name, {!degradation_table}
    with [p=<processors>].
    @raise Invalid_argument if [replicates <= 0]. *)

val stripe_runs :
  ?cost_profile:(progress:float -> float * float) ->
  scenario:Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  first:int ->
  len:int ->
  unit ->
  Engine.outcome array array
(** The stripe step under every study: generate the trace sets of
    replicates [first, first + len) once ({!Scenario.trace_sets}), then
    make one {!Engine.run_stripe} pass per policy over them
    ([simulator.stripe]), sharing the slots' initial lifetime
    templates.  [runs.(j).(i)] is policy [j]'s outcome on replicate
    [first + i], bit-identical to {!Engine.run} on its trace set. *)

val stripe_rows :
  ?cost_profile:(progress:float -> float * float) ->
  scenario:Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  (Engine.outcome -> float array) ->
  first:int ->
  len:int ->
  float array array
(** {!stripe_runs} as one row per replicate: each policy's cells of its
    outcome, concatenated in policy order — the [f] of
    [Sweep_store.vectors]. *)

val table_rows :
  scenario:Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  first:int ->
  len:int ->
  float array array
(** A table's stripe step: {!stripe_runs} over replicates
    [first, first + len), then one row per replicate of
    {!table_row_width} cells.  Each policy, in roster order, then the
    LowerBound, writes a group of ten cells: its
    {!components_of_outcome}, then failures, chunks, min_chunk and
    max_chunk.  A failed run's group is all [nan], and so is the
    LowerBound's on a trace set where no policy completed (an unusable
    replicate, counted as [eval/unusable_replicates]; its bound is not
    run). *)

val table_row_width : policies:int -> int
(** Cells in a {!table_rows} row for a roster of [policies]. *)

val table_row_ok : policies:int -> float array -> bool
(** Whether a stored row can be folded: {!table_row_width} cells, each
    group all [nan] or all finite with a positive makespan, the
    LowerBound's finite exactly when some policy's is, and every cell
    and degradation with a finite square (what
    {!Ckpt_numerics.Summary.Vector.add} accepts). *)

val partial_of_rows : policy_names:string array -> float array array -> partial
(** Fold a stripe's rows (each passing {!table_row_ok}, or all zero:
    an unusable replicate) in replicate order into its partial, the
    same bits whether they were computed or loaded.  One
    [simulator.reduce] span. *)

val stripe_partial :
  scenario:Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  replicates:int ->
  stripe:int ->
  partial
(** {!partial_of_rows} of {!table_rows} over stripe [stripe] (indices
    [stripe * width, min ((stripe + 1) * width, replicates))): one
    stripe ({!map_stripes} fans stripes out).  The determinism
    guarantee of {!degradation_table} applies.
    @raise Invalid_argument on an out-of-range stripe, [replicates <= 0]
    or [policies = []]. *)

val table_of_partials : partial list -> table
(** Merge stripe partials {e in the order given} — pass them in stripe
    order to reproduce {!degradation_table} bit for bit.  The merge is
    one [simulator.reduce] span, whether the partials were computed or
    loaded from a sweep store.
    @raise Invalid_argument on an empty list or mismatched policy
    rosters. *)

val components_of_outcome : Engine.outcome -> float array
(** [[|makespan; useful; checkpoint; wasted; recovery; stall|]], a row
    of [nan] for a failed run. *)

val profile_of_components : float array list -> waste_profile option
(** The {!waste_profile} of completed runs' {!components_of_outcome}
    rows; [None] on an empty list; [deg_ci95] is [nan] (no degradation
    baseline).  @raise Invalid_argument on a non-finite row. *)

val mean_and_profile : float array array -> (float * waste_profile) option
(** One policy's mean makespan (a Welford fold in replicate order) and
    {!profile_of_components}, from its {!components_of_outcome} rows,
    failed runs skipped; [None] if every run failed. *)

val pp_table : Format.formatter -> table -> unit
(** Render rows as the paper's tables do (name, avg, std, extras).
    Cells with no defined value — a policy that completed no run, or a
    standard deviation over fewer than two runs — print as ["n/a"],
    never as [nan] (the paper's incomplete Liu curves). *)
