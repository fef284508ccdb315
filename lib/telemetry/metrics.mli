(** Process-global metrics registry: named counters and gauges.
    Wall-clock time is recorded as {!Span}s; distributions of
    simulated quantities are [Ckpt_numerics.Summary.Vector]s.

    Off by default; switched on with {!set_enabled} by whatever reads
    it ([ckpt stats], the [CKPT_METRICS_OUT] textfile, bench/e2e).
    When disabled, every update entry point ({!incr}, {!add}, {!set})
    is a single [Atomic.get] branch, so instrumented hot paths cost
    nothing in normal runs.  All entry points are domain-safe.

    Handles are registered by name on first use and shared thereafter;
    registering the same name with a different kind raises
    [Invalid_argument]. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Handles} *)

type counter
type gauge

val counter : string -> counter
val gauge : string -> gauge

(** {1 Updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

(** {1 Snapshots} *)

type value = Counter of int | Gauge of float  (** NaN when never set *)

val find : string -> value option
val snapshot : unit -> (string * value) list
(** Every registered metric, sorted by name.  Unaffected by
    {!enabled} — reads always see the current values. *)

val reset : ?prefix:string -> unit -> unit
(** Zero the values (registrations survive).  With [prefix], only
    metrics whose name starts with it. *)

val pp_value : Format.formatter -> value -> unit

val pp_snapshot : Format.formatter -> (string * value) list -> unit
(** Aligned one-line-per-metric rendering, skipping never-touched
    entries. *)
