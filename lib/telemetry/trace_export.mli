(** Serialize traced executions to disk.

    Format by extension: [*.jsonl] gets one JSON object per event per
    line; any other path gets Chrome [trace_event] JSON loadable in
    [chrome://tracing] / Perfetto (one named thread per execution,
    spans as complete events, simulated seconds exported as
    microseconds). *)

val write : path:string -> Tracer.buffer list -> unit

val write_registered : unit -> unit
(** Drain the {!Tracer} sink and write everything to
    [Tracer.out_path], if set and non-empty.  Logs a one-line summary
    to stderr. *)

val ensure_at_exit : unit -> unit
(** Install {!write_registered} as an [at_exit] hook (idempotent).
    Called by the evaluation harness when tracing is armed, so any
    binary that runs an evaluation exports its trace on exit. *)

val jsonl_line : buffer_name:string -> Tracer.event -> string
(** One event as a JSONL line (exposed for tests). *)
