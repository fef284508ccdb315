(** Typed execution tracing: the engine's event stream.

    Events carry {e simulated} timestamps (the engine clock, seconds)
    plus, where the span endpoints re-round through the running clock,
    the engine's exact cost operand — so {!totals} reconciles
    {e bit-for-bit} with [Engine.metrics]: committed work is the sum
    of [Chunk_commit] work, checkpoint time the sum of [Checkpoint]
    costs, wasted time the [Waste] spans, recovery time the
    [Recovery_abort] spans plus [Recovery_complete] costs and stall
    time the [Downtime] spans.

    Tracing is opt-in: an engine run only emits when handed a
    {!buffer}.  Buffers are single-writer — one per execution — and
    keep every event.
    {!write} is the one simulated-time export ([ckpt explain -o]). *)

type event =
  | Decision of { at : float; chunk : float; remaining : float }
      (** the policy chose the next chunk size. *)
  | Chunk_start of { at : float; work : float }
  | Chunk_commit of { t0 : float; t1 : float; work : float }
      (** the chunk's execution span; its checkpoint follows. *)
  | Checkpoint of { t0 : float; t1 : float; cost : float }
      (** committed checkpoint; [cost] is the exact operand the engine
          accumulated (not always [t1 -. t0] at the bit level). *)
  | Failure of { at : float; proc : int }  (** effective platform failure. *)
  | Waste of { t0 : float; t1 : float }
      (** execution/checkpoint time destroyed by a failure. *)
  | Downtime of { t0 : float; t1 : float }  (** processors stalled on downtimes. *)
  | Recovery_start of { at : float }
  | Recovery_abort of { t0 : float; t1 : float }  (** recovery struck by a failure. *)
  | Recovery_complete of { t0 : float; t1 : float; cost : float }

(** {1 Buffers} *)

type buffer

val create_buffer : name:string -> unit -> buffer

val emit : buffer -> event -> unit
(** Single-writer: a buffer belongs to the one engine run filling it. *)

val length : buffer -> int

val to_list : buffer -> event list
(** Chronological (oldest event first). *)

(** {1 Reconciliation totals} *)

type totals = {
  work : float;
  checkpoint : float;
  waste : float;
  recovery : float;
  downtime : float;
  failures : int;
  chunks : int;
  decisions : int;
}

val zero_totals : totals
val totals : buffer -> totals
(** Summed durations and event counts, folded with the same operands
    in the same order as the engine's accumulators: equal to
    [Engine.metrics] {e bitwise}. *)

(** {1 Export} *)

val write : path:string -> buffer -> unit
(** Write the buffer's events to [path], atomically.  A [*.jsonl] path
    gets one JSON object per event per line ({!jsonl_line}); any other
    path gets Chrome trace_event JSON ({!Json.chrome_trace}): one
    thread named after the buffer, spans as complete events, point
    events as instants, each with its span name as category, in
    simulated seconds exported as microseconds. *)

val jsonl_line : buffer_name:string -> event -> string
(** One event as a JSONL line:
    [{"event":<kind>,"run":<buffer_name>,"at"|"t0","t1",<fields>...}]. *)
