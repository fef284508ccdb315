(** Metrics time-series and OpenMetrics exposition.

    A periodic sampler ([CKPT_METRICS_INTERVAL], in seconds; implies
    [CKPT_METRICS=1] and span recording) snapshots the {!Metrics}
    registry and the {!Span} totals, atomically
    publishes an OpenMetrics/Prometheus textfile to
    [CKPT_METRICS_OUT] (default [metrics.prom]) via
    [Ckpt_store.Atomic_file], and appends a JSONL time-series sample
    to the same path + [.jsonl].  Setting [CKPT_METRICS_OUT] without
    an interval publishes one final snapshot at process exit.

    This is the monitoring substrate for long sweeps and the planned
    [ckpt serve]: histograms surface p50/p90/p99, counters and span
    totals map to their native OpenMetrics types. *)

val openmetrics : ?spans:Span.total list -> (string * Metrics.value) list -> string
(** Render a snapshot as an OpenMetrics textfile, terminated by
    [# EOF].  Counters become [<name>_total]; histograms become
    summaries ([_sum]/[_count] plus [quantile="0.5"|"0.9"|"0.99"]
    sample lines).  Metric names are sanitized ([/] → [_]) and prefixed
    [ckpt_].  [spans] become one quantile-less summary family,
    [ckpt_span_seconds{layer="…",name="…"}]. *)

val jsonl_sample : ?spans:Span.total list -> ts:float -> (string * Metrics.value) list -> string
(** One time-series sample as a single JSON line:
    [{"ts": ..., "metrics": {<name>: {...}, ...}, "spans": [...]}]. *)

val publish : unit -> unit
(** Snapshot and write both outputs now.  Never raises — failures are
    reported to stderr (the sampler thread must not kill the
    process). *)

val ensure_sampler : unit -> unit
(** Start the sampler thread per the environment (idempotent; no-op
    when neither [CKPT_METRICS_INTERVAL] nor [CKPT_METRICS_OUT] is
    set).  Installs an [at_exit] final publish. *)

val stop : unit -> unit
(** Ask a running sampler thread to exit after its current delay. *)

val interval : unit -> float option
(** [CKPT_METRICS_INTERVAL] when it is a positive number of seconds
    (a malformed value warns once and reads as unset). *)

val out_path : unit -> string
val series_path : unit -> string
