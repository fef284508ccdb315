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

(* The outcome of one Monte-Carlo replicate: every policy and the
   omniscient bound, accumulated into replicate-local state.  It
   depends only on (scenario, policies, replicate) — never on which
   domain ran it, in which order, or in which stripe — which is what
   makes the parallel fan-out below deterministic. *)
type replicate_outcome = {
  rep_accs : accumulator array;  (* one per policy, input order *)
  rep_lb : accumulator;
  rep_usable : bool;
}

(* [stripe_runs], keeping the trace sets for the LowerBound. *)
let stripe_pass ?cost_profile ~scenario ~policies ~first ~len () =
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

(* Reassembles a stripe's passes into per-replicate outcomes in
   canonical slot order, adding the omniscient bound on each usable
   trace set. *)
let run_replicate_stripe ~scenario ~policies ~first ~len =
  let traces, policy_runs = stripe_pass ~scenario ~policies ~first ~len () in
  Array.init len (fun i ->
      let best =
        Array.fold_left
          (fun acc runs ->
            match runs.(i) with
            | Engine.Completed m -> Float.min acc m.Engine.makespan
            | Engine.Policy_failed _ -> acc)
          infinity policy_runs
      in
      let rep_accs = Array.map (fun _ -> fresh_accumulator ()) policies in
      let rep_lb = fresh_accumulator () in
      let rep_usable = Float.is_finite best && best > 0. in
      if rep_usable then begin
        Array.iteri
          (fun j runs ->
            match runs.(i) with
            | Engine.Completed m -> record rep_accs.(j) ~degradation:(m.Engine.makespan /. best) m
            | Engine.Policy_failed _ -> ())
          policy_runs;
        let lb =
          Span.time ~layer:"simulator.stripe" "LowerBound" (fun () ->
              Engine.lower_bound ~scenario ~traces:traces.(i) ())
        in
        record rep_lb ~degradation:(lb.Engine.makespan /. best) lb
      end;
      Metrics.incr replicates_run;
      if not rep_usable then Metrics.incr unusable_replicates;
      { rep_accs; rep_lb; rep_usable })

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

(* Merge a stripe's replicate outcomes in replicate order — the
   canonical within-stripe reduction. *)
let partial_of_outcomes ~policy_names outcomes =
  let accs = Array.map (fun _ -> fresh_accumulator ()) policy_names in
  let lb = fresh_accumulator () in
  let usable = ref 0 in
  Array.iter
    (fun o ->
      if o.rep_usable then incr usable;
      Array.iteri (fun j rep -> merge_into accs.(j) rep) o.rep_accs;
      merge_into lb o.rep_lb)
    outcomes;
  { p_policies = policy_names; p_accs = accs; p_lb = lb; p_usable = !usable;
    p_replicates = Array.length outcomes }

(* A merge-neutral partial: zero replicates, fresh accumulators, the
   given roster.  Sweep workers substitute it for units another worker
   currently holds — worker-side reductions are discarded (only the
   parent's canonical pass renders output), so the placeholder merely
   keeps the roster checks in [table_of_partials] satisfied. *)
let empty_partial ~policy_names =
  partial_of_outcomes ~policy_names [||]

let stripe_partial ~scenario ~policies ~replicates ~stripe =
  if replicates <= 0 then invalid_arg "Evaluation.stripe_partial: replicates must be positive";
  if policies = [] then invalid_arg "Evaluation.stripe_partial: no policies";
  let first, len = stripe_bounds ~replicates ~stripe in
  let policy_array = Array.of_list policies in
  let names = Array.map (fun p -> p.Policy.name) policy_array in
  partial_of_outcomes ~policy_names:names
    (run_replicate_stripe ~scenario ~policies:policy_array ~first ~len)

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

(* -- persistence of partials -------------------------------------------------

   Line-based text, floats in hexadecimal notation via
   [Summary.serialize], so a reloaded partial is bit-identical to the
   computed one.  Deserialization answers [None] on any malformed
   input: a corrupted checkpoint must read as "recompute me". *)

let serialize_accumulator a =
  Printf.sprintf "%s %s %s %s %d %h %h %s" (Summary.serialize a.degradation)
    (Summary.serialize a.makespan) (Summary.serialize a.failures)
    (Summary.serialize a.chunk_counts) a.worst_failures a.smallest_chunk a.largest_chunk
    (Summary.Vector.serialize a.profile)

(* 4 summaries x 5 tokens + worst/smallest/largest, followed by the
   variable-length distributional vector. *)
let accumulator_tokens = 23

let deserialize_accumulator tokens =
  let ( let* ) = Option.bind in
  if Array.length tokens < accumulator_tokens then None
  else begin
    let summary i =
      Summary.deserialize (String.concat " " (Array.to_list (Array.sub tokens i 5)))
    in
    let* degradation = summary 0 in
    let* makespan = summary 5 in
    let* failures = summary 10 in
    let* chunk_counts = summary 15 in
    let* worst_failures = int_of_string_opt tokens.(20) in
    let* smallest_chunk = float_of_string_opt tokens.(21) in
    let* largest_chunk = float_of_string_opt tokens.(22) in
    let rest =
      Array.to_list (Array.sub tokens accumulator_tokens (Array.length tokens - accumulator_tokens))
    in
    let* profile =
      match Summary.Vector.of_tokens rest with
      | Some (v, []) when Summary.Vector.dim v = profile_dim -> Some v
      | _ -> None
    in
    Some
      {
        degradation;
        makespan;
        failures;
        chunk_counts;
        worst_failures;
        smallest_chunk;
        largest_chunk;
        profile;
      }
  end

(* /2 added the distributional vector to each accumulator line.  /1
   units in a sweep store deserialize as None and are recomputed —
   exactly the invalidation semantics the store already has for
   corrupted units. *)
let partial_format = "ckpt-eval-partial/2"

let serialize_partial p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf partial_format;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "policies\t%s\n" (String.concat "\t" (Array.to_list p.p_policies)));
  Buffer.add_string buf (Printf.sprintf "replicates %d\n" p.p_replicates);
  Buffer.add_string buf (Printf.sprintf "usable %d\n" p.p_usable);
  Buffer.add_string buf (Printf.sprintf "lb %s\n" (serialize_accumulator p.p_lb));
  Array.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf "acc %s\n" (serialize_accumulator a)))
    p.p_accs;
  Buffer.contents buf

let deserialize_partial ~policy_names ~replicates contents =
  let ( let* ) = Option.bind in
  let acc_of tag line =
    match String.split_on_char ' ' (String.trim line) with
    | t :: tokens when t = tag -> deserialize_accumulator (Array.of_list tokens)
    | _ -> None
  in
  match String.split_on_char '\n' contents with
  | format :: roster :: reps :: usable :: lb :: accs
    when format = partial_format
         && roster = String.concat "\t" ("policies" :: Array.to_list policy_names)
         && reps = Printf.sprintf "replicates %d" replicates
         && String.starts_with ~prefix:"usable " usable ->
      let* p_usable = int_of_string_opt (String.sub usable 7 (String.length usable - 7)) in
      let* p_lb = acc_of "lb" lb in
      let accs = List.filter (fun l -> String.trim l <> "") accs |> List.map (acc_of "acc") in
      if p_usable < 0 || p_usable > replicates
         || List.length accs <> Array.length policy_names
         || List.exists Option.is_none accs
      then None
      else
        Some
          {
            p_policies = policy_names;
            p_accs = Array.of_list (List.map Option.get accs);
            p_lb;
            p_usable;
            p_replicates = replicates;
          }
  | _ -> None

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
