module Age_summary = Ckpt_core.Age_summary
module Dp_makespan = Ckpt_core.Dp_makespan
module Dp_next_failure = Ckpt_core.Dp_next_failure
module Metrics = Ckpt_telemetry.Metrics

let table_hits = Metrics.counter "dp_makespan/table_cache_hits"
let table_misses = Metrics.counter "dp_makespan/table_cache_misses"
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

let dp_makespan ?quantum ?(cap_states = Dp_makespan.default_cap_states)
    ?(chunk_factor = Dp_makespan.default_chunk_factor) job =
  let context = Job.dp_context job ~platform_view:(job.Job.processors > 1) in
  let work = job.Job.work_time in
  (* The policy value owns its solved tables, keyed by (domain, age
     bucket): a [Dp_makespan.t] keeps memoizing while cursors walk it,
     so each domain walks tables of its own, shared by every execution
     it runs.  The lock covers lookup and insert only; a miss solves
     outside it, and no other domain ever solves the same key. *)
  let tables = Hashtbl.create 8 in
  let lock = Mutex.create () in
  let table_for tau0 =
    let bucket = age_bucket tau0 in
    let key = ((Domain.self () :> int), bucket) in
    match Mutex.protect lock (fun () -> Hashtbl.find_opt tables key) with
    | Some t ->
        Metrics.incr table_hits;
        t
    | None ->
        Metrics.incr table_misses;
        let t =
          Dp_makespan.solve ?quantum ~cap_states ~chunk_factor ~context ~work
            ~initial_age:(bucket_age bucket) ()
        in
        Mutex.protect lock (fun () -> Hashtbl.replace tables key t);
        t
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
  let recipe =
    (* The default quantum is a rule of the job and [cap_states], both
       in the store key, so "auto" names it. *)
    Printf.sprintf "DPMakespan(quantum=%s cap_states=%d chunk_factor=%h)"
      (match quantum with Some q -> Printf.sprintf "%h" q | None -> "auto")
      cap_states chunk_factor
  in
  { Policy.name = "DPMakespan"; recipe; instantiate; decide = None }

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
  let recipe =
    (* [reference] is left out: both paths plan the same bits. *)
    Printf.sprintf "DPNextFailure(nexact=%d napprox=%d max_states=%d truncation_factor=%h%s)"
      nexact napprox max_states truncation_factor
      (if Option.is_some cost_profile then " cost_profile" else "")
  in
  { Policy.name = "DPNextFailure"; recipe; instantiate; decide = None }
