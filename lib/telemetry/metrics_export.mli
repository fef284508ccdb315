(** OpenMetrics exposition of the metrics registry.

    Setting [CKPT_METRICS_OUT] to a path (blank means unset) publishes
    one final snapshot of the {!Metrics} registry and the {!Span}
    totals at process exit, written atomically via
    [Ckpt_store.Atomic_file].  Counters, gauges and span totals map to
    their native OpenMetrics types. *)

val openmetrics : ?spans:Span.total list -> (string * Metrics.value) list -> string
(** Render a snapshot as an OpenMetrics textfile, terminated by
    [# EOF].  Counters become [<name>_total]; gauges that were set
    become one sample line.  Metric names are sanitized ([/] → [_])
    and prefixed [ckpt_].  [spans] become one quantile-less summary family,
    [ckpt_span_seconds{layer="…",name="…"}]. *)

val ensure_at_exit : unit -> unit
(** When [CKPT_METRICS_OUT] names a path, enable metrics and span recording
    and install the final publish as an [at_exit] hook (idempotent; a
    no-op otherwise).  A publish failure is reported to stderr, never
    raised.  [ckpt]'s entry point calls it once. *)
