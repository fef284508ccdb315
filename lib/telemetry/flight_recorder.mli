(** Scheduler flight recorder: per-domain wall-clock state intervals.

    Each domain taking part in the pool owns one {!track} ([worker<i>]
    for pool workers, [external<i>] for any other domain) and records
    which state it is in — running a task, scanning the region list,
    publishing a region, parked, or helping another region's join — as
    spans on a per-track monotone wall clock.
    Recording is single-writer (the owning domain) and lock-free;
    reports and exports run after the parallel region quiesces.

    Off by default.  [CKPT_SCHED_TRACE=1] enables recording; any other
    non-empty value (except [0]/[false]) also names a Chrome
    trace_event output path written at process exit.
    [CKPT_SCHED_TRACE_CAP] overrides the per-track ring capacity
    (default 65536 spans; older spans are dropped on wrap-around and
    counted). *)

type state =
  | Run_task
  | Scan_miss  (** looked for a region and found none *)
  | Scan_hit  (** looked for a region and took a seat in one *)
  | Publish  (** put a new region on the pool's list *)
  | Park
  | Unpark  (** instant: woken by the pool's condition variable *)
  | Join_help  (** running another region's items while joining *)

val all_states : state list
val state_name : state -> string

type span = { sp_state : state; sp_t0 : float; sp_t1 : float }

(** {1 Configuration} *)

val enabled : unit -> bool
(** One atomic read; every recording site branches on this. *)

val set_enabled : bool -> unit

val out_path : unit -> string option
(** Chrome trace output path from [CKPT_SCHED_TRACE] (when it is a
    path rather than [1]) or {!set_out_path}. *)

val set_out_path : string -> unit
(** Also enables recording. *)

(** {1 Tracks and recording} *)

type track

val track : ?capacity:int -> string -> track
(** Get or create the track registered under this name.  Each track
    must be written by a single domain. *)

val track_name : track -> string

val now : unit -> float
(** [Unix.gettimeofday] — real wall clock, unlike [Tracer]'s simulated
    timestamps. *)

val record : track -> state -> t0:float -> t1:float -> unit
(** Owner-domain only.  Timestamps are clamped monotone per track. *)

val instant : track -> state -> at:float -> unit
(** A zero-duration span (e.g. {!Unpark}). *)

val spans : track -> span list
(** Retained spans, oldest first. *)

val dropped : track -> int
val tracks : unit -> track list
(** All registered tracks in creation order. *)

val reset : unit -> unit
(** Forget all tracks (tests). *)

(** {1 Utilization report} *)

type state_total = { st_state : state; st_seconds : float; st_count : int }

type worker_report = {
  wr_name : string;
  wr_wall : float;  (** last span end − first span start *)
  wr_attributed : float;  (** total seconds inside recorded spans *)
  wr_states : state_total list;  (** one entry per {!all_states} member *)
  wr_dropped : int;
}

val report : unit -> worker_report list

val state_seconds : worker_report -> state -> float
val state_count : worker_report -> state -> int

type overhead = { ov_label : string; ov_seconds : float; ov_events : int }

val overheads : worker_report list -> overhead list
(** The three pool overhead candidates — empty scans, parking churn,
    queue publication — summed across domains, sorted by descending
    time. *)

val dominant_overhead : worker_report list -> overhead option
(** Head of {!overheads} when it has nonzero time. *)
