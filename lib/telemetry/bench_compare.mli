(** Provenance-aware comparison of [BENCH_*.json] artifacts.

    Backs [ckpt bench diff] and [ckpt bench check].  Numeric fields
    are classified by leaf-name convention — [*_per_sec] and
    [*speedup*] are higher-better, [*_seconds]/[*_ms]/[*_us] are
    lower-better, [*_percent] is lower-better with an absolute
    percentage-point threshold — and nested values (e.g. the engine
    bench's per-point curve) are flattened to dotted paths.
    Workload-shape fields (replicates, processors, strings, booleans)
    must match exactly, as must the provenance sidecars' domain and
    core counts; otherwise the pair is {e incomparable} and
    gets a distinct exit code rather than a fake verdict. *)

type direction = Higher_better | Lower_better | Lower_better_pp

type comparison = {
  c_metric : string;
  c_old : float;
  c_new : float;
  c_direction : direction;
  c_delta : float;  (** relative percent, or percentage points for [Lower_better_pp] *)
  c_threshold : float;
  c_regressed : bool;
  c_improved : bool;
}

type verdict = {
  v_old : string;
  v_new : string;
  v_comparisons : comparison list;
  v_config_mismatches : string list;  (** nonempty ⇒ incomparable *)
  v_skipped : string list;
  v_warnings : string list;
}

val diff :
  ?threshold:float -> old_path:string -> new_path:string -> unit -> (verdict, string) result
(** Compare two artifacts.  [?threshold] overrides every per-metric
    default (relative percent for rate/time metrics, percentage points
    for [*_percent]).  [Error] means a file could not be read or
    parsed (exit code {!exit_error}). *)

val exit_code : verdict -> int

val exit_ok : int  (** 0 — comparable, no regressions *)

val exit_regression : int  (** 1 — at least one metric beyond threshold *)

val exit_error : int  (** 2 — unreadable/unparseable input *)

val exit_incomparable : int
(** 3 — sidecars or workload-shape fields disagree (domains, core
    count, replicates, ...) *)

val verdict_json : verdict -> Json.t
(** Machine-readable verdict (printed to stdout by [ckpt bench diff]). *)

val default_threshold : direction -> float

val check : dir:string -> (string * string list) list
(** Validate every [BENCH_*.json] under [dir]: parseable, carries a
    ["bench"] field, sidecar present and parseable with a ["schema"].
    Returns per-artifact problem lists (empty list = clean), sorted by
    name. *)
