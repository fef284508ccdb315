module Age_summary = Ckpt_core.Age_summary
module Dp_makespan = Ckpt_core.Dp_makespan
module Dp_next_failure = Ckpt_core.Dp_next_failure
module Metrics = Ckpt_telemetry.Metrics

let table_hits = Metrics.counter "dp_makespan/table_cache_hits"
let table_misses = Metrics.counter "dp_makespan/table_cache_misses"
let table_entries = Metrics.gauge "dp_makespan/table_cache_entries"
let table_evictions = Metrics.counter "dp_makespan/table_cache_evictions"
let replans = Metrics.counter "dp_next_failure/replans"

(* DPMakespan tables are shared across executions whose initial age
   falls in the same 50%-geometric bucket: at the month-plus ages where
   jobs start, the optimal plan varies far more slowly than that.
   Each bucket's table is solved at the bucket's canonical (midpoint)
   age rather than the first age seen, so the shared table does not
   depend on which execution populated the cache — a requirement for
   bit-identical results when replicates are claimed by domains in a
   scheduling-dependent order. *)
let age_bucket tau0 = int_of_float (log1p tau0 /. 0.5)
let bucket_age bucket = expm1 ((float_of_int bucket +. 0.5) *. 0.5)

(* -- bounded per-domain table cache ------------------------------------------

   One cache per domain (a [Dp_makespan.t] keeps memoizing lazily while
   cursors walk it, so sharing across domains would race), shared by
   every DPMakespan policy instance in that domain and keyed by
   (instance id, age bucket).  Before this cache was instance-owned via
   a DLS key per [dp_makespan] call — DLS slots are never freed, so a
   long-running sweep worker crossing thousands of scenarios leaked
   every dead instance's tables.  Now occupancy is bounded by
   CKPT_DP_CACHE_CAP (least-recently-used eviction; 0 = unbounded):
   eviction only forces a deterministic re-solve at the bucket's
   canonical age, so results are bit-identical at any cap. *)

let default_dp_cache_cap = 64

let dp_cache_cap () =
  match
    Ckpt_telemetry.Provenance.env_int "CKPT_DP_CACHE_CAP" ~want:"an integer >= 0" ~valid:(fun n ->
        n >= 0)
  with
  | Some 0 -> max_int
  | Some n -> n
  | None -> default_dp_cache_cap

type table_entry = { table : Dp_makespan.t; mutable last_use : int }

type table_cache = {
  entries : (int * int, table_entry) Hashtbl.t;
  mutable tick : int;  (* recency clock: bumped on every lookup *)
}

let instance_counter = Atomic.make 0

let table_cache_key : table_cache Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { entries = Hashtbl.create 32; tick = 0 })

let evict_lru cache =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.last_use <= entry.last_use -> acc
        | _ -> Some (key, entry))
      cache.entries None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove cache.entries key;
      Metrics.incr table_evictions

let cached_table ~instance ~solve tau0 =
  let cache = Domain.DLS.get table_cache_key in
  cache.tick <- cache.tick + 1;
  let key = (instance, age_bucket tau0) in
  match Hashtbl.find_opt cache.entries key with
  | Some entry ->
      Metrics.incr table_hits;
      entry.last_use <- cache.tick;
      entry.table
  | None ->
      Metrics.incr table_misses;
      let t = solve (bucket_age (age_bucket tau0)) in
      let cap = dp_cache_cap () in
      while Hashtbl.length cache.entries >= cap do
        evict_lru cache
      done;
      Hashtbl.add cache.entries key { table = t; last_use = cache.tick };
      Metrics.set table_entries (float_of_int (Hashtbl.length cache.entries));
      t

(* Exposed for tests: occupancy of this domain's cache. *)
let table_cache_size () = Hashtbl.length (Domain.DLS.get table_cache_key).entries

let dp_makespan ?quantum ?cap_states ?chunk_factor job =
  let context = Job.dp_context job ~platform_view:(job.Job.processors > 1) in
  let work = job.Job.work_time in
  let instance = Atomic.fetch_and_add instance_counter 1 in
  let table_for tau0 =
    cached_table ~instance
      ~solve:(fun initial_age ->
        Dp_makespan.solve ?quantum ?cap_states ?chunk_factor ~context ~work ~initial_age ())
      tau0
  in
  let instantiate () =
    let cursor = ref None in
    fun (obs : Policy.observation) ->
      (match obs.Policy.phase with
      | Policy.Start -> cursor := Some (Dp_makespan.start (table_for obs.Policy.min_age))
      | Policy.After_checkpoint ->
          cursor := Option.map Dp_makespan.advance_success !cursor
      | Policy.After_recovery -> cursor := Option.map Dp_makespan.advance_failure !cursor);
      match !cursor with
      | None ->
          (* Defensive: a decision before Start should not happen. *)
          None
      | Some c ->
          let chunk = Dp_makespan.next_chunk c in
          if chunk <= 0. then
            (* Quantization residue: finish whatever float dust remains. *)
            Some obs.Policy.remaining
          else Some (Policy.clamp_chunk ~remaining:obs.Policy.remaining chunk)
  in
  (* The cursor makes each decision depend on the whole history, not
     the current observation alone: no pure-scalar declaration. *)
  { Policy.name = "DPMakespan"; instantiate; decide = None }

let dp_next_failure ?(nexact = Age_summary.default_nexact)
    ?(napprox = Age_summary.default_napprox) ?(max_states = 150) ?(truncation_factor = 2.)
    ?cost_profile ?(reference = false) job =
  let base_context = Job.dp_context job ~platform_view:false in
  let units = Job.failure_units job in
  let work_time = job.Job.work_time in
  (* With a progress-dependent cost profile (the paper's conclusion
     extension), each replan plans with the costs at the current
     progress: exact at the planning horizon's start, and the horizon
     is at most two platform MTBFs, over which the profile moves
     little. *)
  let context_at ~remaining =
    match cost_profile with
    | None -> base_context
    | Some f ->
        let progress = Float.max 0. (Float.min 1. (1. -. (remaining /. work_time))) in
        let c, r = f ~progress in
        Ckpt_core.Dp_context.create ~dist:base_context.Ckpt_core.Dp_context.dist ~checkpoint:c
          ~recovery:r ~downtime:base_context.Ckpt_core.Dp_context.downtime
  in
  let instantiate () =
    (* Remaining plan chunks, and how much of the plan may still be
       consumed before a replan (the first-half rule under
       truncation). *)
    let pending = ref [] in
    let budget = ref 0. in
    let replan (obs : Policy.observation) =
      Metrics.incr replans;
      let context = context_at ~remaining:obs.Policy.remaining in
      let ages =
        if reference then
          Age_summary.build ~nexact ~napprox context.Ckpt_core.Dp_context.dist ~processors:units
            ~iter_ages:obs.Policy.iter_ages
        else obs.Policy.summarize ~nexact ~napprox context.Ckpt_core.Dp_context.dist
      in
      let plan =
        Dp_next_failure.solve ~max_states ~truncation_factor ~prune:(not reference) ~context
          ~ages ~work:obs.Policy.remaining ()
      in
      pending := plan.Dp_next_failure.chunks;
      budget := plan.Dp_next_failure.valid_work
    in
    fun (obs : Policy.observation) ->
      if obs.Policy.remaining <= 0. then None
      else begin
        (match obs.Policy.phase with
        | Policy.Start | Policy.After_recovery -> replan obs
        | Policy.After_checkpoint ->
            (match !pending with
            | _ :: _ when !budget > 0. -> ()
            | _ -> replan obs));
        match !pending with
        | [] ->
            (* Plan exhausted by quantization dust: flush the rest. *)
            Some obs.Policy.remaining
        | chunk :: rest ->
            pending := rest;
            budget := !budget -. chunk;
            Some (Policy.clamp_chunk ~remaining:obs.Policy.remaining chunk)
      end
  in
  (* Stateful (pending plan and budget) and age-summary-driven: every
     execution needs its own instance. *)
  { Policy.name = "DPNextFailure"; instantiate; decide = None }
