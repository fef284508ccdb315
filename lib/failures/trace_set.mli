(** A set of per-processor failure traces for one simulated scenario.

    Section 4.3's protocol: generate traces for the largest processor
    count once; an experiment with [p] processors uses the first [p]
    traces, so results remain coherent when varying [p].  Each
    processor's stream is derived deterministically from
    [(seed, replicate, processor)], so any sub-platform of any
    replicate is reproducible in isolation. *)

type t

val generate :
  seed:int64 ->
  replicate:int ->
  Ckpt_distributions.Distribution.t ->
  processors:int ->
  horizon:float ->
  t
(** [generate ~seed ~replicate dist ~processors ~horizon] samples
    [processors] independent renewal traces.  "Processor" here is any
    independent failure source — when failures strike whole
    [k]-processor nodes (the LANL logs of Section 4.3), generate one
    trace per node. *)

val of_traces : Trace.t array -> t
(** @raise Invalid_argument on an empty array or mismatched horizons. *)

val processors : t -> int
val horizon : t -> float
val trace : t -> int -> Trace.t
(** [trace t i] is source [i]'s trace. *)

val total_failures : t -> int
(** Sum of per-processor failure counts (group traces counted once per
    processor sharing them). *)

val next_platform_failure : t -> after:float -> (float * int) option
(** [(date, processor)] of the earliest failure at date [>= after]
    across all processors. *)

val events : t -> (float * int) array
(** All failures of all processors merged into one array of
    [(date, processor)] pairs sorted by [(date, processor)] — a
    heap-based k-way merge of the per-processor traces, with the
    processor index breaking date ties so the order is fully
    specified.  Built once at construction so platform-level queries
    are a binary search.  The returned array is shared: do not mutate
    it. *)

val next_event_index : t -> after:float -> int
(** Index into {!events} of the first event with date [>= after]
    ([length events] when there is none). *)
