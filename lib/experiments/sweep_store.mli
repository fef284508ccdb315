(** Resumable, content-addressed sweep checkpointing.

    A study is a sweep over (experiment, scenario, replicate-stripe)
    units.  With a store attached, each unit persists one format: its
    stripe's rows, one row of floats per replicate in hex notation —
    a degradation table's {!Ckpt_simulator.Evaluation.table_rows}, or
    a {!vectors} study's own rows.  Units live under a key that hashes
    the experiment name, the full scenario (seed included), the
    roster's recipes ({!Ckpt_policies.Policy.t.recipe}: each policy's
    name and resolved parameters), the replicate count, the stripe
    width, the unit kind (and a vectors unit's row width),
    {!code_epoch}, and the caller's [params] for inputs that are not
    policies.  Units are written atomically
    (tempfile + fsync + rename, {!Ckpt_store.Atomic_file}).  Re-running
    an interrupted study then skips every completed unit and recomputes
    only the missing ones.  A table is always the fold of its rows
    through the same stripe merge tree, so it comes out bit-identical.

    Invalidation is by construction: any changed key field changes the
    key, so stale units are simply never consulted (and two concurrent
    sweeps with different parameters can share a directory without
    collision).  A unit file that exists but fails its header or
    payload check is counted as {e invalidated}, recomputed, and
    overwritten.  The payload must be exactly the stripe's rows at the
    expected width; for a table, [len] rows of the roster's width, each
    group all finite or all NaN
    ({!Ckpt_simulator.Evaluation.table_row_ok}).  Units carry no
    checksum.  A unit of another format, such as a table unit written
    before tables were stored as rows, reads as invalidated too.

    [ckpt sweep --resume <dir>] attaches the store; without it every
    entry point below degrades to the plain, storeless computation.

    {2 Multi-process sweeps}

    The store doubles as a coordinator-free distribution substrate
    ([ckpt sweep --workers N], {!Sweep_workers}).  Worker processes run
    the same deterministic experiment enumeration against the shared
    directory in {e worker mode}: a missing unit is computed only after
    winning its {e claim marker} — [<unit>.claim], created O_EXCL with
    a pid/host/timestamp payload; create wins, losers move on and
    substitute rows of zeros (unusable replicates, for a table).  Claims whose owner is dead
    (same-host pid check) or older than {!Claim.ttl} (10 min) are
    reaped and re-claimed, so a SIGKILLed worker never wedges a sweep.
    Claims gate only worker-mode compute: loads never consult them,
    the parent's canonical pass ignores them, and unit writes are
    atomic and idempotent under the content key — a reaping race at
    worst duplicates one unit's compute, never corrupts output. *)

type t
(** A sweep store rooted at a directory. *)

val code_epoch : string
(** Joins every unit key.  Bump it with any change to the code that
    alters the bits a unit stores (the engine, a policy's decisions,
    trace generation, the row layout) without changing a key field:
    every existing unit is then orphaned and recomputed once.  The
    pinned engine digests of the simulator tests are checked against
    it, so changing one of them fails a test until the epoch moves. *)

val create : dir:string -> t
(** Open (creating as needed) the store at [dir].
    @raise Sys_error when the directory cannot be created. *)

val dir : t -> string

val of_config : Config.t -> t option
(** The store named by the config's [sweep_dir], if any. *)

type stats = {
  skipped : int;  (** units loaded from the store *)
  computed : int;  (** units computed and persisted *)
  invalidated : int;  (** unit files found corrupt and recomputed *)
  claimed : int;  (** worker mode: claim markers won *)
  busy : int;  (** worker mode: units skipped, held by a live worker *)
  reaped : int;  (** stale claim markers removed *)
}
(** Process-wide unit counters since the last {!reset_stats}.  Mirrored
    as telemetry counters [sweep/units_skipped], [sweep/units_computed],
    [sweep/units_invalidated], [sweep/claims_won], [sweep/claims_busy],
    [sweep/claims_reaped] while the registry is enabled. *)

val stats : unit -> stats
val reset_stats : unit -> unit

val set_worker_mode : bool -> unit
(** Switch this process into (or out of) worker mode — see the module
    preamble.  Set once by {!Sweep_workers.run_as_worker}; the parent
    process must never enable it, so its final pass computes every
    missing unit regardless of leftover claims. *)

(** The claim-marker protocol, exposed for tests and tooling.  Normal
    code never calls these directly: worker-mode entry points claim and
    release internally. *)
module Claim : sig
  val path : string -> string
  (** The claim marker guarding a unit file: [<unit>.claim]. *)

  val ttl : float
  (** Claim time-to-live in seconds: 600.  Only claims whose owner
      cannot be probed (another host, a torn payload) wait this long;
      a dead same-host pid is reaped at once. *)

  val write : path:string -> pid:int -> host:string -> time:float -> unit
  (** Forge a claim marker with an explicit payload (tests use this to
      simulate live, dead and foreign-host workers). *)

  val stale : now:float -> string -> bool
  (** Whether the claim at [path] is reapable at time [now]: its pid is
      dead (same-host claims only) or its age exceeds {!ttl}.  A
      missing file is not stale; an unparsable payload ages from the
      file's mtime. *)
end

val reap_claims : t -> int
(** Remove every claim marker and return the count removed.  Only safe
    once every worker has been waited on. *)

val degradation_table :
  ?store:t ->
  ?params:(string * string) list ->
  experiment:string ->
  scenario:Ckpt_simulator.Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  replicates:int ->
  unit ->
  Ckpt_simulator.Evaluation.table
(** {!Ckpt_simulator.Evaluation.degradation_table}, checkpointed per
    replicate stripe when [store] is given: each unit holds the
    stripe's {!Ckpt_simulator.Evaluation.table_rows}, and each stripe,
    loaded or computed, is folded by
    {!Ckpt_simulator.Evaluation.partial_of_rows} before
    {!Ckpt_simulator.Evaluation.table_of_partials}.  Bit-identical to
    the plain call either way.  [experiment] names the study point
    (distinct sweep points of one study must pass distinct names or
    differ in a key field); [params] are extra key/value pairs for
    inputs that are neither the scenario nor a policy, folded into the
    unit key and recorded in each unit's provenance sidecar. *)

val vectors :
  ?store:t ->
  ?params:(string * string) list ->
  experiment:string ->
  scenario:Ckpt_simulator.Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  replicates:int ->
  width:int ->
  f:(first:int -> len:int -> float array array) ->
  unit ->
  float array array
(** One row of [width] floats per replicate, in replicate order, for
    studies whose unit of work is a row per replicate rather than a
    policy table: [f ~first ~len] computes one stripe's rows (usually
    {!Ckpt_simulator.Evaluation.stripe_rows}), and with a [store] each
    stripe is one unit in the same row format as a table's.  The key
    is a table's, with the recipes of [policies] (the policies the
    rows come from; [[]] when the rows depend on the scenario alone)
    and [width].  [f] must be a pure function of its bounds, the
    scenario, [policies] and [params], which must name every other
    input (a cost profile, a power model).  Rows round-trip the store
    bit-exactly (hex floats; NaN/inf cells included, so a [nan] can
    mark a failed run).
    @raise Invalid_argument if [replicates <= 0], [width <= 0], or [f]
    returns other than [len] rows of [width]. *)
