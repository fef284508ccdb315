(** Resumable, content-addressed sweep checkpointing.

    A study is a sweep over (experiment, scenario, replicate-stripe)
    units.  With a store attached, each unit's merged
    {!Ckpt_simulator.Evaluation.partial} is persisted under a key that
    hashes the experiment name, the full scenario parameters, the seed,
    the policy roster and the stripe layout; written atomically
    (tempfile + fsync + rename, {!Ckpt_store.Atomic_file}).  Re-running
    an interrupted study then skips every completed unit and recomputes
    only the missing ones, and — because tables are always reduced
    through the same stripe merge tree — produces bit-identical output.

    Invalidation is by construction: any changed parameter changes the
    key, so stale units are simply never consulted (and two concurrent
    sweeps with different parameters can share a directory without
    collision).  A unit file that exists but fails its header or
    payload check — the payload must parse and fit its stripe: the
    expected roster and replicate count for a table, exactly the
    stripe's rows of the expected width for {!vectors}; units carry no
    checksum — is counted as {e invalidated}, recomputed, and
    overwritten.

    Point the store at a directory with [CKPT_SWEEP_DIR=<dir>] (or
    [ckpt sweep --resume <dir>]); without it every entry point below
    degrades to the plain, storeless computation.

    {2 Multi-process sweeps}

    The store doubles as a coordinator-free distribution substrate
    ([ckpt sweep --workers N], {!Sweep_workers}).  Worker processes run
    the same deterministic experiment enumeration against the shared
    directory in {e worker mode}: a missing unit is computed only after
    winning its {e claim marker} — [<unit>.claim], created O_EXCL with
    a pid/host/timestamp payload; create wins, losers move on and
    substitute a merge-neutral placeholder.  Claims whose owner is dead
    (same-host pid check) or older than {!Claim.ttl} (10 min) are
    reaped and re-claimed, so a SIGKILLed worker never wedges a sweep.
    Claims gate only worker-mode compute: loads never consult them,
    the parent's canonical pass ignores them, and unit writes are
    atomic and idempotent under the content key — a reaping race at
    worst duplicates one unit's compute, never corrupts output. *)

type t
(** A sweep store rooted at a directory. *)

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

val worker_mode : unit -> bool

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

type unit_info = {
  u_path : string;
  u_experiment : string;
  u_digest : string;
  u_stripe : int;
}

val units : t -> unit_info list
(** The completed units on disk, sorted by file name.  Progress
    reporting and tooling only — correctness always re-derives the
    unit set from the experiment enumeration. *)

type claim_info = {
  c_path : string;
  c_pid : int option;  (** [None] when the payload is torn/unwritten *)
  c_host : string option;
  c_age : float;  (** seconds since the claim's timestamp (or mtime) *)
  c_stale : bool;
}

val claims : t -> claim_info list
(** Outstanding claim markers, sorted by file name. *)

val reap_claims : ?all:bool -> t -> int
(** Remove stale claim markers (all of them with [~all:true] — only
    safe once every worker has been waited on) and return the count
    removed. *)

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
    replicate stripe when [store] is given; bit-identical to the plain
    call either way.  [experiment] names the study point (distinct
    sweep points of one study must pass distinct names or [params]);
    [params] are extra key/value pairs folded into the unit key and
    recorded in each unit's provenance sidecar. *)

val vectors :
  ?store:t ->
  ?params:(string * string) list ->
  experiment:string ->
  scenario:Ckpt_simulator.Scenario.t ->
  replicates:int ->
  width:int ->
  f:(first:int -> len:int -> float array array) ->
  unit ->
  float array array
(** One row of [width] floats per replicate, in replicate order, for
    studies whose unit of work is a row per replicate rather than a
    policy table: [f ~first ~len] computes one stripe's rows (usually
    {!Ckpt_simulator.Evaluation.stripe_rows}), and with a [store] each
    stripe is one unit.  [f] must be a pure function of its bounds, the
    scenario and [params], which must name every other input the rows
    depend on (policies, periods, cost profile); [width] joins the key.
    Rows round-trip the store bit-exactly (hex floats; NaN/inf cells
    included, so a [nan] can mark a failed run).
    @raise Invalid_argument if [replicates <= 0], [width <= 0], or [f]
    returns other than [len] rows of [width]. *)
