(** Mergeable log-scale histogram.

    Power-of-two buckets: bucket [i] holds observations in
    [2^(i-offset), 2^(i-offset+1)); 64 buckets centred on 1.0 cover
    ~1e-9 .. ~4e9 (microseconds to decades, in seconds).  Out-of-range
    values clamp to the end buckets and non-positive values land in
    bucket 0.  {!Summary.Vector} keeps one per component for its
    quantile estimates (the makespan p50/p95/p99 of every table).

    All state is integer counts plus exact min/max, so {!merge} is
    exactly commutative and associative: merging per-stripe histograms
    in any tree order yields bit-identical results. *)

type t = { buckets : int array; count : int; min_v : float; max_v : float }

val bucket_lower : int -> float
(** Lower bound [2^(i-offset)] of bucket [i]. *)

val empty : t
val add : t -> float -> t
val merge : t -> t -> t

val quantile : t -> float -> float
(** Estimated [p]-quantile: walk to the bucket containing the rank and
    report its geometric midpoint, clamped into the observed
    [min_v, max_v] range (min/max are exact observations while
    midpoints are bucket estimates).  [nan] when empty; exact [min_v] /
    [max_v] for [p <= 0] / [p >= 1]. *)
