(** Process-global metrics registry: named counters, gauges and
    log-scale histograms.  Wall-clock time is recorded as {!Span}s.

    Off by default; enable with [CKPT_METRICS=1] or {!set_enabled}.
    When disabled, every update entry point ({!incr}, {!add}, {!set},
    {!observe}) is a single [Atomic.get] branch, so instrumented hot
    paths cost nothing in normal runs.  All entry points are
    domain-safe.

    Handles are registered by name on first use and shared thereafter;
    registering the same name with a different kind raises
    [Invalid_argument]. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Handles} *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** {1 Updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Count [v] into its power-of-two bucket and the running moments. *)

(** {1 Snapshots} *)

type histogram_snapshot = {
  buckets : int array;
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
}

val merge_histograms : histogram_snapshot -> histogram_snapshot -> histogram_snapshot
(** [Summary.merge]-style combination: the merge of two snapshots is
    the snapshot of the concatenated observation streams (commutative
    and associative), so per-domain histograms combine in any order. *)

val empty_histogram : histogram_snapshot
val histogram_mean : histogram_snapshot -> float
val histogram_quantile : histogram_snapshot -> float -> float
(** Bucket-resolution estimate: geometric midpoint of the bucket
    holding the rank, clamped into [[min_v, max_v]] so the result is
    monotone in the quantile argument; [p <= 0] and [p >= 1] return
    the exact observed extrema.  NaN on an empty snapshot. *)

val bucket_lower : int -> float
(** Lower bound of bucket [i], [2^(i - 32)] seconds. *)

type value =
  | Counter of int
  | Gauge of float  (** NaN when never set *)
  | Histogram of histogram_snapshot

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
