module Policy = Ckpt_policies.Policy
module Summary = Ckpt_numerics.Summary
module Domain_pool = Ckpt_parallel.Domain_pool
module Metrics = Ckpt_telemetry.Metrics
module Span = Ckpt_telemetry.Span

let replicates_run = Metrics.counter "eval/replicates"
let unusable_replicates = Metrics.counter "eval/unusable_replicates"

(* Component layout of the distributional accumulator
   (Summary.Vector): the engine's waste decomposition plus the
   per-replicate degradation. *)
let comp_makespan = 0
let comp_useful = 1
let comp_checkpoint = 2
let comp_wasted = 3
let comp_recovery = 4
let comp_stall = 5
let comp_degradation = 6
let profile_dim = 7

type waste_profile = {
  mk_p50 : float;
  mk_p95 : float;
  mk_p99 : float;
  mk_mean : float;
  mk_ci95 : float;
  deg_ci95 : float;
  useful_s : float;
  checkpoint_s : float;
  wasted_s : float;
  recovery_s : float;
  stall_s : float;
  useful_frac : float;
  checkpoint_frac : float;
  wasted_frac : float;
  recovery_frac : float;
  stall_frac : float;
}

type policy_result = {
  policy_name : string;
  average_degradation : float;
  std_degradation : float;
  average_makespan : float;
  successes : int;
  average_failures : float;
  max_failures : int;
  average_chunks : float;
  min_chunk : float;
  max_chunk : float;
  profile : waste_profile option;  (* None when no run completed *)
}

type table = {
  lower_bound : policy_result;
  results : policy_result list;
  replicates : int;
  usable_replicates : int;
}

type accumulator = {
  mutable degradation : Summary.t;
  mutable makespan : Summary.t;
  mutable failures : Summary.t;
  mutable chunk_counts : Summary.t;
  mutable worst_failures : int;
  mutable smallest_chunk : float;
  mutable largest_chunk : float;
  mutable profile : Summary.Vector.t;
      (* exact distributional view of the waste decomposition; merges
         bit-identically whatever the reduction tree, unlike the
         Welford summaries above (which stay the source of the
         original mean/std columns). *)
}

let fresh_accumulator () =
  {
    degradation = Summary.empty;
    makespan = Summary.empty;
    failures = Summary.empty;
    chunk_counts = Summary.empty;
    worst_failures = 0;
    smallest_chunk = infinity;
    largest_chunk = 0.;
    profile = Summary.Vector.create ~dim:profile_dim;
  }

(* The waste decomposition, indexed by the [comp_*] slots above. *)
let components (m : Engine.metrics) =
  Engine.
    [| m.makespan; m.useful_work; m.checkpoint_time; m.wasted_time; m.recovery_time; m.stall_time |]

let record acc ~degradation (m : Engine.metrics) =
  acc.degradation <- Summary.add acc.degradation degradation;
  acc.makespan <- Summary.add acc.makespan m.Engine.makespan;
  acc.failures <- Summary.add acc.failures (float_of_int m.Engine.failures);
  acc.chunk_counts <- Summary.add acc.chunk_counts (float_of_int m.Engine.chunks);
  acc.worst_failures <- max acc.worst_failures m.Engine.failures;
  if m.Engine.chunks > 0 then begin
    acc.smallest_chunk <- Float.min acc.smallest_chunk m.Engine.min_chunk;
    acc.largest_chunk <- Float.max acc.largest_chunk m.Engine.max_chunk
  end;
  acc.profile <- Summary.Vector.add acc.profile (Array.append (components m) [| degradation |])

let merge_into acc other =
  acc.degradation <- Summary.merge acc.degradation other.degradation;
  acc.makespan <- Summary.merge acc.makespan other.makespan;
  acc.failures <- Summary.merge acc.failures other.failures;
  acc.chunk_counts <- Summary.merge acc.chunk_counts other.chunk_counts;
  acc.worst_failures <- max acc.worst_failures other.worst_failures;
  acc.smallest_chunk <- Float.min acc.smallest_chunk other.smallest_chunk;
  acc.largest_chunk <- Float.max acc.largest_chunk other.largest_chunk;
  acc.profile <- Summary.Vector.merge acc.profile other.profile

let profile_of_vector v =
  let module V = Summary.Vector in
  if V.count v = 0 then None
  else begin
    let mk_mean = V.mean v comp_makespan in
    let frac i = if mk_mean > 0. then V.mean v i /. mk_mean else nan in
    Some
      {
        mk_p50 = V.quantile v comp_makespan 0.5;
        mk_p95 = V.quantile v comp_makespan 0.95;
        mk_p99 = V.quantile v comp_makespan 0.99;
        mk_mean;
        mk_ci95 = V.ci_half_width v comp_makespan;
        deg_ci95 = V.ci_half_width v comp_degradation;
        useful_s = V.mean v comp_useful;
        checkpoint_s = V.mean v comp_checkpoint;
        wasted_s = V.mean v comp_wasted;
        recovery_s = V.mean v comp_recovery;
        stall_s = V.mean v comp_stall;
        useful_frac = frac comp_useful;
        checkpoint_frac = frac comp_checkpoint;
        wasted_frac = frac comp_wasted;
        recovery_frac = frac comp_recovery;
        stall_frac = frac comp_stall;
      }
  end

let result_of_accumulator name acc =
  {
    policy_name = name;
    average_degradation = Summary.mean acc.degradation;
    std_degradation = Summary.std acc.degradation;
    average_makespan = Summary.mean acc.makespan;
    successes = Summary.count acc.degradation;
    average_failures = Summary.mean acc.failures;
    max_failures = acc.worst_failures;
    average_chunks = Summary.mean acc.chunk_counts;
    min_chunk = (if acc.smallest_chunk = infinity then 0. else acc.smallest_chunk);
    max_chunk = acc.largest_chunk;
    profile = profile_of_vector acc.profile;
  }

(* [stripe_runs], keeping the trace sets for the LowerBound.  Every
   computed replicate of every study passes here once; a unit loaded
   from a sweep store counts nothing. *)
let stripe_pass ?cost_profile ~scenario ~policies ~first ~len () =
  Metrics.add replicates_run len;
  let traces, initial_births =
    Span.time ~layer:"failures.trace_gen" "Scenario.traces" (fun () ->
        let traces = Array.init len (fun i -> Scenario.traces scenario ~replicate:(first + i)) in
        (traces, Array.map (Scenario.initial_lifetime_starts scenario) traces))
  in
  let runs =
    Array.map
      (fun policy ->
        Span.time ~layer:"simulator.stripe" policy.Policy.name (fun () ->
            Engine.run_stripe ?cost_profile ~initial_births ~scenario ~traces ~policy ()))
      policies
  in
  (traces, runs)

let stripe_runs ?cost_profile ~scenario ~policies ~first ~len () =
  snd (stripe_pass ?cost_profile ~scenario ~policies:(Array.of_list policies) ~first ~len ())

let stripe_rows ?cost_profile ~scenario ~policies cells ~first ~len =
  let runs = stripe_runs ?cost_profile ~scenario ~policies ~first ~len () in
  Array.init len (fun i -> Array.concat (Array.to_list (Array.map (fun r -> cells r.(i)) runs)))

(* -- table rows ---------------------------------------------------------------

   A table's stripe step writes one row per replicate: a group of
   [row_group] cells per policy, then one for the LowerBound — the
   waste components of [components], then failures, chunks, min_chunk
   and max_chunk.  A failed run's group is all NaN, and so is the
   LowerBound's on an unusable trace set, where it is not run.  The
   sweep store persists these rows; a stripe partial is their fold, so
   a computed and a reloaded stripe reduce through the same code. *)

let row_group = 10

let cells_of_metrics (m : Engine.metrics) =
  Array.append (components m)
    Engine.[| float_of_int m.failures; float_of_int m.chunks; m.min_chunk; m.max_chunk |]

let metrics_of_cells g =
  {
    Engine.makespan = g.(0);
    useful_work = g.(1);
    checkpoint_time = g.(2);
    wasted_time = g.(3);
    recovery_time = g.(4);
    stall_time = g.(5);
    failures = int_of_float g.(6);
    chunks = int_of_float g.(7);
    min_chunk = g.(8);
    max_chunk = g.(9);
  }

let table_row_width ~policies = row_group * (policies + 1)

(* The best makespan of a row: the smallest over the policies' groups,
   failed runs skipped; [infinity] when every run failed. *)
let best_of_row ~policies row =
  let best = ref infinity in
  for j = 0 to policies - 1 do
    let makespan = row.(j * row_group) in
    if not (Float.is_nan makespan) then best := Float.min !best makespan
  done;
  !best

let usable best = Float.is_finite best && best > 0.

let table_rows ~scenario ~policies ~first ~len =
  let policies = Array.of_list policies in
  let n = Array.length policies in
  let traces, runs = stripe_pass ~scenario ~policies ~first ~len () in
  Array.init len (fun i ->
      let row = Array.make (table_row_width ~policies:n) nan in
      let put j m = Array.blit (cells_of_metrics m) 0 row (j * row_group) row_group in
      Array.iteri
        (fun j runs ->
          match runs.(i) with Engine.Completed m -> put j m | Engine.Policy_failed _ -> ())
        runs;
      if usable (best_of_row ~policies:n row) then
        put n
          (Span.time ~layer:"simulator.stripe" "LowerBound" (fun () ->
               Engine.lower_bound ~scenario ~traces:traces.(i) ()))
      else Metrics.incr unusable_replicates;
      row)

(* What [partial_of_rows] accepts from a stored row: each group all
   NaN, or all finite with a positive makespan; the LowerBound's
   finite exactly on a usable trace set; and every value the
   accumulators square — cells and degradations — with a finite
   square. *)
let table_row_ok ~policies row =
  Array.length row = table_row_width ~policies
  &&
  let squarable x = Float.is_finite (x *. x) in
  let best = best_of_row ~policies row in
  Float.is_nan row.(policies * row_group) <> usable best
  && List.for_all
       (fun j ->
         let g = Array.sub row (j * row_group) row_group in
         Array.for_all Float.is_nan g
         || (g.(0) > 0. && Array.for_all squarable g && squarable (g.(0) /. best)))
       (List.init (policies + 1) Fun.id)

(* -- replicate stripes -------------------------------------------------------

   Replicates are grouped into contiguous stripes of [stripe_size]
   (CKPT_SWEEP_STRIPE): the reduction merges replicate outcomes in
   order within each stripe, then stripe partials in stripe order.
   This fixed merge tree — independent of domain count, of which
   domain ran a stripe, and of whether it was computed now or loaded
   from a sweep checkpoint — is what makes a resumed study
   bit-identical to an uninterrupted one. *)

let default_stripe_size = 16

(* The width is part of every sweep-store key, so a typo silently
   falling back would recompute a whole study under new keys. *)
let stripe_size () =
  Option.value ~default:default_stripe_size
    (Ckpt_telemetry.Provenance.env_int "CKPT_SWEEP_STRIPE" ~want:"an integer >= 1"
       ~valid:(fun n -> n >= 1))

let stripe_count ~replicates =
  if replicates <= 0 then invalid_arg "Evaluation.stripe_count: replicates must be positive";
  let sz = stripe_size () in
  (replicates + sz - 1) / sz

let stripe_bounds ~replicates ~stripe =
  if replicates <= 0 then invalid_arg "Evaluation.stripe_bounds: replicates must be positive";
  let sz = stripe_size () in
  let first = stripe * sz in
  if stripe < 0 || first >= replicates then invalid_arg "Evaluation.stripe_bounds: no such stripe";
  (first, min sz (replicates - first))

(* Replicate progress under CKPT_VERBOSE=1: one stderr line per
   finished stripe, under one lock since stripes finish on any domain. *)
let progress_lock = Mutex.create ()

let progress finished ~label ~len ~total =
  Mutex.protect progress_lock (fun () ->
      Printf.eprintf "[eval] %s %d/%d replicates\n%!" label
        (len + Atomic.fetch_and_add finished len) total)

(* The one stripe fan-out.  In the domain pool it composes with a
   study's own configuration fan-out (idle domains help with the
   stripes of busy ones); the stripe is the unit of parallel work
   because the engine amortizes across its replicates.  Results come
   back in stripe order, so any reduce over them is independent of
   the domain count. *)
let map_stripes ~label ~replicates f =
  let count = stripe_count ~replicates in
  let finished = if Span.verbose () then Some (Atomic.make 0) else None in
  Domain_pool.parallel_init count (fun stripe ->
      let first, len = stripe_bounds ~replicates ~stripe in
      let r = f ~stripe ~first ~len in
      Option.iter (fun finished -> progress finished ~label ~len ~total:replicates) finished;
      r)

type partial = {
  p_policies : string array;  (* policy names, input order *)
  p_accs : accumulator array;
  p_lb : accumulator;
  p_usable : int;
  p_replicates : int;
}

(* The canonical within-stripe reduction: each row's runs are recorded
   into accumulators of their own replicate — which depend only on
   (scenario, policies, replicate), never on which domain ran it or
   whether it was loaded — then merged in replicate order.  The
   LowerBound is the last group. *)
let partial_of_rows ~policy_names rows =
  Span.time ~layer:"simulator.reduce" "partial_of_rows" (fun () ->
      let n = Array.length policy_names in
      let accs = Array.init (n + 1) (fun _ -> fresh_accumulator ()) in
      let usable_rows = ref 0 in
      Array.iter
        (fun row ->
          let best = best_of_row ~policies:n row in
          if usable best then begin
            incr usable_rows;
            Array.iteri
              (fun j acc ->
                let g = Array.sub row (j * row_group) row_group in
                if not (Float.is_nan g.(0)) then begin
                  let rep = fresh_accumulator () in
                  record rep ~degradation:(g.(0) /. best) (metrics_of_cells g);
                  merge_into acc rep
                end)
              accs
          end)
        rows;
      { p_policies = policy_names; p_accs = Array.sub accs 0 n; p_lb = accs.(n);
        p_usable = !usable_rows; p_replicates = Array.length rows })

let stripe_partial ~scenario ~policies ~replicates ~stripe =
  if replicates <= 0 then invalid_arg "Evaluation.stripe_partial: replicates must be positive";
  if policies = [] then invalid_arg "Evaluation.stripe_partial: no policies";
  let first, len = stripe_bounds ~replicates ~stripe in
  partial_of_rows
    ~policy_names:(Array.of_list (List.map (fun p -> p.Policy.name) policies))
    (table_rows ~scenario ~policies ~first ~len)

(* The cross-stripe merge, attributed here once for both the computed
   and the stored path. *)
let table_of_partials partials =
  Span.time ~layer:"simulator.reduce" "table_of_partials" (fun () ->
      match partials with
      | [] -> invalid_arg "Evaluation.table_of_partials: no partials"
      | head :: _ ->
          List.iter
            (fun p ->
              if p.p_policies <> head.p_policies then
                invalid_arg "Evaluation.table_of_partials: mismatched policy rosters")
            partials;
          let accs = Array.map (fun _ -> fresh_accumulator ()) head.p_policies in
          let lb_acc = fresh_accumulator () in
          let usable = ref 0 in
          let replicates = ref 0 in
          List.iter
            (fun p ->
              usable := !usable + p.p_usable;
              replicates := !replicates + p.p_replicates;
              Array.iteri (fun i a -> merge_into accs.(i) a) p.p_accs;
              merge_into lb_acc p.p_lb)
            partials;
          {
            lower_bound = result_of_accumulator "LowerBound" lb_acc;
            results =
              Array.to_list
                (Array.mapi (fun i name -> result_of_accumulator name accs.(i)) head.p_policies);
            replicates = !replicates;
            usable_replicates = !usable;
          })

(* Each stripe merges its replicate outcomes in order inside its task,
   then the partials merge in stripe order: the same tree the sweep
   store persists, so a table assembled from checkpointed stripe
   partials is bit-identical to this one. *)
let degradation_table ~scenario ~policies ~replicates =
  if replicates <= 0 then invalid_arg "Evaluation.degradation_table: replicates must be positive";
  if policies = [] then invalid_arg "Evaluation.degradation_table: no policies";
  let label = Printf.sprintf "p=%d" scenario.Scenario.job.Ckpt_policies.Job.processors in
  let partials =
    map_stripes ~label ~replicates (fun ~stripe ~first:_ ~len:_ ->
        stripe_partial ~scenario ~policies ~replicates ~stripe)
  in
  table_of_partials (Array.to_list partials)

let components_of_outcome = function
  | Engine.Completed m -> components m
  | Engine.Policy_failed _ -> Array.make comp_degradation nan

(* No degradation baseline here: the slot carries a neutral 1 and its
   interval is blanked. *)
let profile_of_components rows =
  let vector =
    List.fold_left
      (fun v row -> Summary.Vector.add v (Array.append row [| 1. |]))
      (Summary.Vector.create ~dim:profile_dim)
      rows
  in
  Option.map (fun p -> { p with deg_ci95 = nan }) (profile_of_vector vector)

let mean_and_profile rows =
  let completed = List.filter (fun r -> not (Float.is_nan r.(0))) (Array.to_list rows) in
  let mean = Summary.(mean (List.fold_left (fun s r -> add s r.(0)) empty completed)) in
  Option.map (fun p -> (mean, p)) (profile_of_components completed)

(* A float cell that may be undefined (no successful run to average,
   or a single run with no defined deviation): print "n/a" instead of
   letting the NaN leak into the table. *)
let pp_cell ~width ~decimals fmt v =
  if Float.is_nan v then Format.fprintf fmt "%*s" width "n/a"
  else Format.fprintf fmt "%*.*f" width decimals v

let pp_result fmt r =
  Format.fprintf fmt "%-16s %a %a  %a s  %3d ok  %a fail (max %d)" r.policy_name
    (pp_cell ~width:8 ~decimals:5) r.average_degradation
    (pp_cell ~width:8 ~decimals:5) r.std_degradation
    (pp_cell ~width:10 ~decimals:0) r.average_makespan r.successes
    (pp_cell ~width:6 ~decimals:1) r.average_failures r.max_failures

let pp_profile_row fmt (r : policy_result) =
  match r.profile with
  | None -> Format.fprintf fmt "%-16s %8s" r.policy_name "n/a"
  | Some p ->
      Format.fprintf fmt "%-16s %a %a %a %a %a  %a %a %a  %a s" r.policy_name
        (pp_cell ~width:8 ~decimals:4) p.useful_frac
        (pp_cell ~width:8 ~decimals:4) p.checkpoint_frac
        (pp_cell ~width:8 ~decimals:4) p.wasted_frac
        (pp_cell ~width:8 ~decimals:4) p.recovery_frac
        (pp_cell ~width:8 ~decimals:4) p.stall_frac
        (pp_cell ~width:10 ~decimals:0) p.mk_p50
        (pp_cell ~width:10 ~decimals:0) p.mk_p95
        (pp_cell ~width:10 ~decimals:0) p.mk_p99
        (pp_cell ~width:8 ~decimals:0) p.mk_ci95

let pp_table fmt t =
  Format.fprintf fmt "%-16s %8s %8s  %12s  %5s  %s@." "policy" "avg-deg" "std" "avg-makespan"
    "runs" "failures";
  Format.fprintf fmt "%a@." pp_result t.lower_bound;
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_result r) t.results;
  Format.fprintf fmt "(%d/%d usable trace sets)@." t.usable_replicates t.replicates;
  Format.fprintf fmt "waste breakdown (fractions of makespan; makespan p50/p95/p99, 95%% CI)@.";
  Format.fprintf fmt "%-16s %8s %8s %8s %8s %8s  %10s %10s %10s  %8s@." "policy" "useful"
    "ckpt" "wasted" "recovery" "stall" "p50" "p95" "p99" "ci95";
  Format.fprintf fmt "%a@." pp_profile_row t.lower_bound;
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_profile_row r) t.results
