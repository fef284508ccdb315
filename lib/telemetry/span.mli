(** Wall-clock spans: where the time of a run went.

    A span is one wall-clock interval attributed to a {e layer} and a
    {e name} within it.  The layers are bench/e2e's:
    [experiments.setup], [policies.setup], [simulator.period_search],
    [failures.trace_gen], [simulator.stripe] (name = policy),
    [simulator.reduce], [experiments.store_load], and [parallel.sched]
    (names [run-task], [scan-miss], [scan-hit], [publish], [park],
    [unpark], [join-help]).

    Each domain records into its own single-writer track — [worker<i>]
    for pool workers (see {!name_track}), [external<i>] for any other
    domain.  A track keeps one record: every span it recorded, in
    record order, as measured, and whether it was outermost.  Totals,
    coverage and the export are all folds over that record, whole or
    from a {!mark}.

    Recording is on while a consumer is live: [CKPT_VERBOSE=1], an
    export path ([CKPT_SPANS_OUT] or [CKPT_METRICS_OUT]), or
    {!set_enabled} (tests).  When it is off, every call site costs one
    [Atomic.get].

    Timestamps come from [Unix.gettimeofday].  Every reading clamps
    them monotone within each layer of a track: a stepped clock cannot
    produce a negative span, and a span nested in another of the same
    layer truncates the encloser's start rather than being counted
    twice.  Layers never clamp each other, so a [simulator.stripe] span
    keeps its full duration however many [parallel.sched] spans run
    inside it.  Coverage counts outermost spans as measured. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val verbose : unit -> bool
(** [CKPT_VERBOSE=1]: replicate progress and each study's span report
    go to stderr. *)

(** {1 Recording} *)

val now : unit -> float

val time : layer:string -> string -> (unit -> 'a) -> 'a
(** [time ~layer name f] is [f ()], recorded as one span on the calling
    domain's track when enabled (also when [f] raises). *)

val record : layer:string -> string -> t0:float -> t1:float -> unit
(** Record an interval the caller measured with {!now}.  For leaf
    spans only: spans recorded while it ran do not count as nested in
    it.  [t0 = t1] is an instant.  No-op when disabled. *)

val name_track : string -> unit
(** Record the calling domain's spans on the track of this name from
    now on.  Tracks are created on first record, so naming a domain
    costs nothing while recording is off. *)

(** {1 Reading}

    Readers may run while domains record, but see exact figures only
    once the recording domains are quiet. *)

type total = {
  layer : string;
  name : string;
  seconds : float;
  count : int;
  first : float;  (** start of the first span *)
  last : float;  (** end of the last span *)
}

type track = {
  track : string;
  totals : total list;  (** sorted by layer, then name *)
  top_seconds : float;
      (** time inside outermost spans: the part of this domain's wall
          time some span accounts for *)
  window : float;
      (** latest span end − earliest measured start (0 without spans):
          the wall time this track's coverage is measured against *)
}

type mark
(** A point to measure totals from: the current time and each track's
    span count. *)

val mark : unit -> mark
(** Also names the calling domain's track as the one whose wall time a
    {!scope} attributes. *)

val tracks : ?since:mark -> unit -> track list
(** Every track, in creation order.  With [since], each track folds
    only the spans recorded after the mark, and a span that began
    before the mark counts from the mark on. *)

val merge : track list -> total list
(** Per-(layer, name) sums across tracks, sorted by layer, then name. *)

val scope : label:string -> (unit -> 'a) -> 'a
(** [f ()].  Under [CKPT_VERBOSE=1], also print to stderr the per-layer
    totals recorded during [f], summed across domains, and attribution
    lines: how much of [f]'s wall time the outermost spans of the
    calling domain cover, then, for every other track that recorded
    during [f], how much of that track's {!track.window} its outermost
    spans cover.  Back-to-back scopes never count each other's spans. *)

(** {1 Export} *)

type span = { sp_layer : string; sp_name : string; sp_t0 : float; sp_t1 : float }

val recent : unit -> (string * span list) list
(** Each track's spans, oldest first, by track name. *)

val chrome : (string * span list) list -> string
(** Chrome trace_event JSON ({!Json.chrome_trace}) of named tracks: one
    thread per track, the layer as category, [ph:"X"] spans and
    [ph:"i"] instants ([sp_t0 = sp_t1]), timestamps rebased to the
    earliest span. *)

val write_chrome : path:string -> unit
(** {!chrome} of every track ({!recent}).  [CKPT_SPANS_OUT=f]
    writes [f] at exit — after the domain pool has shut down, so the
    file can also hold the workers' last [park] spans. *)

val reset : unit -> unit
(** Forget every track (tests). *)
