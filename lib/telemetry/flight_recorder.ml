(* Scheduler flight recorder: what is each domain doing, when?

   The pool's counters (sched/regions, sched/idle_park, ...) say how
   often things happened but not where the wall time went.  This
   module records per-domain *state intervals* — run-task, scan-miss,
   scan-hit, publish, park, unpark, join-help — into per-track ring
   buffers with the same single-writer discipline as [Tracer]: each
   track is owned by exactly one domain, so recording takes no lock and
   no atomic beyond the enabled check.

   Unlike [Tracer] (simulated clock), spans here are real wall-clock
   intervals from [Unix.gettimeofday], clamped monotone per track so a
   stepped system clock cannot produce negative spans.

   Off by default.  CKPT_SCHED_TRACE=1 records (for `ckpt
   sched-report`); any other non-empty value is treated as an output
   path and additionally exports a Chrome trace_event file at exit
   (via [Trace_export.ensure_flight_at_exit]). *)

type state =
  | Run_task
  | Scan_miss
  | Scan_hit
  | Publish
  | Park
  | Unpark
  | Join_help

let all_states = [ Run_task; Scan_miss; Scan_hit; Publish; Park; Unpark; Join_help ]

let state_name = function
  | Run_task -> "run-task"
  | Scan_miss -> "scan-miss"
  | Scan_hit -> "scan-hit"
  | Publish -> "publish"
  | Park -> "park"
  | Unpark -> "unpark"
  | Join_help -> "join-help"

let state_tag = function
  | Run_task -> 0
  | Scan_miss -> 1
  | Scan_hit -> 2
  | Publish -> 3
  | Park -> 4
  | Unpark -> 5
  | Join_help -> 6

let state_of_tag = function
  | 0 -> Run_task
  | 1 -> Scan_miss
  | 2 -> Scan_hit
  | 3 -> Publish
  | 4 -> Park
  | 5 -> Unpark
  | _ -> Join_help

(* An instant (unpark) is a span with t1 = t0; it contributes zero
   duration to attribution but shows up as a marker in exports. *)
type span = { sp_state : state; sp_t0 : float; sp_t1 : float }

(* -- configuration ---------------------------------------------------------- *)

let parse_env = function
  | None | Some "" | Some "0" | Some "false" -> (false, None)
  | Some ("1" | "true") -> (true, None)
  | Some path -> (true, Some path)

let initial_enabled, initial_out = parse_env (Sys.getenv_opt "CKPT_SCHED_TRACE")
let enabled_flag = Atomic.make initial_enabled
let out_ref = Atomic.make initial_out
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let out_path () = Atomic.get out_ref

let set_out_path path =
  Atomic.set out_ref (Some path);
  Atomic.set enabled_flag true

let default_capacity =
  match Option.bind (Sys.getenv_opt "CKPT_SCHED_TRACE_CAP") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 65536

(* -- tracks ----------------------------------------------------------------- *)

(* Struct-of-arrays ring: tag/t0/t1 in parallel arrays, no per-span
   allocation on the hot path.  Only the owning domain mutates; a
   reader (report/export) runs after the parallel region quiesces. *)
type track = {
  tr_name : string;
  tags : int array;
  t0s : float array;
  t1s : float array;
  capacity : int;
  mutable head : int;  (* next write slot *)
  mutable len : int;
  mutable dropped : int;  (* spans overwritten after wrap-around *)
  mutable last : float;  (* monotone clock clamp, owner-only *)
}

let registry : track list ref = ref []
let registry_lock = Mutex.create ()

let make_track ~capacity name =
  {
    tr_name = name;
    tags = Array.make capacity 0;
    t0s = Array.make capacity 0.;
    t1s = Array.make capacity 0.;
    capacity;
    head = 0;
    len = 0;
    dropped = 0;
    last = 0.;
  }

let track ?(capacity = default_capacity) name =
  Mutex.lock registry_lock;
  let t =
    match List.find_opt (fun t -> t.tr_name = name) !registry with
    | Some t -> t
    | None ->
        let t = make_track ~capacity:(max 1 capacity) name in
        registry := t :: !registry;
        t
  in
  Mutex.unlock registry_lock;
  t

let tracks () =
  Mutex.lock registry_lock;
  let ts = List.rev !registry in
  Mutex.unlock registry_lock;
  ts

let reset () =
  Mutex.lock registry_lock;
  registry := [];
  Mutex.unlock registry_lock

(* -- recording (owner domain only) ------------------------------------------ *)

let now () = Unix.gettimeofday ()

let record t state ~t0 ~t1 =
  (* Clamp monotone per track: a backwards-stepping wall clock must
     not produce negative or overlapping-in-reverse spans. *)
  let t0 = Float.max t0 t.last in
  let t1 = Float.max t1 t0 in
  t.last <- t1;
  t.tags.(t.head) <- state_tag state;
  t.t0s.(t.head) <- t0;
  t.t1s.(t.head) <- t1;
  t.head <- (t.head + 1) mod t.capacity;
  if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

let instant t state ~at = record t state ~t0:at ~t1:at

let spans t =
  let start = (t.head - t.len + t.capacity * 2) mod t.capacity in
  List.init t.len (fun i ->
      let j = (start + i) mod t.capacity in
      { sp_state = state_of_tag t.tags.(j); sp_t0 = t.t0s.(j); sp_t1 = t.t1s.(j) })

let dropped t = t.dropped
let track_name t = t.tr_name

(* -- utilization report ------------------------------------------------------ *)

type state_total = { st_state : state; st_seconds : float; st_count : int }

type worker_report = {
  wr_name : string;
  wr_wall : float;  (* last span end - first span start *)
  wr_attributed : float;  (* sum of span durations *)
  wr_states : state_total list;  (* in [all_states] order *)
  wr_dropped : int;
}

let report_of_track t =
  let sps = spans t in
  match sps with
  | [] -> { wr_name = t.tr_name; wr_wall = 0.; wr_attributed = 0.; wr_states = []; wr_dropped = t.dropped }
  | first :: _ ->
      let last_t1 = List.fold_left (fun acc s -> Float.max acc s.sp_t1) first.sp_t0 sps in
      let seconds = Array.make 7 0. and counts = Array.make 7 0 in
      List.iter
        (fun s ->
          let i = state_tag s.sp_state in
          seconds.(i) <- seconds.(i) +. (s.sp_t1 -. s.sp_t0);
          counts.(i) <- counts.(i) + 1)
        sps;
      {
        wr_name = t.tr_name;
        wr_wall = last_t1 -. first.sp_t0;
        wr_attributed = Array.fold_left ( +. ) 0. seconds;
        wr_states =
          List.map
            (fun st ->
              let i = state_tag st in
              { st_state = st; st_seconds = seconds.(i); st_count = counts.(i) })
            all_states;
        wr_dropped = t.dropped;
      }

let report () = List.map report_of_track (tracks ())

let state_seconds wr st =
  List.fold_left
    (fun acc r -> if r.st_state = st then acc +. r.st_seconds else acc)
    0. wr.wr_states

let state_count wr st =
  List.fold_left (fun acc r -> if r.st_state = st then acc + r.st_count else acc) 0 wr.wr_states

(* The three candidate explanations for pool overhead, each summed
   across all domains.  "Empty scans" is time spent looking for a
   region and finding none; "parking churn" is time parked plus the
   wake transitions; "queue publication" is time spent putting a new
   region on the shared list (including the pool lock). *)
type overhead = { ov_label : string; ov_seconds : float; ov_events : int }

let overheads reports =
  let total st = List.fold_left (fun acc wr -> acc +. state_seconds wr st) 0. reports in
  let count st = List.fold_left (fun acc wr -> acc + state_count wr st) 0 reports in
  [
    { ov_label = "empty scans"; ov_seconds = total Scan_miss; ov_events = count Scan_miss };
    {
      ov_label = "parking churn";
      ov_seconds = total Park;
      ov_events = count Park + count Unpark;
    };
    { ov_label = "queue publication"; ov_seconds = total Publish; ov_events = count Publish };
  ]
  |> List.stable_sort (fun a b -> Float.compare b.ov_seconds a.ov_seconds)

let dominant_overhead reports =
  match overheads reports with
  | { ov_seconds; _ } :: _ when ov_seconds <= 0. -> None
  | o :: _ -> Some o
  | [] -> None
