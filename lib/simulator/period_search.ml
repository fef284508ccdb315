module Policy = Ckpt_policies.Policy
module Optexp = Ckpt_policies.Optexp

let tuning_offset = 1_000_000

let default_factors () =
  let coarse = List.init 51 (fun j -> 1.1 ** float_of_int (j - 25)) in
  let fine = List.init 21 (fun i -> 1. +. (0.05 *. float_of_int (i - 10))) in
  List.filter (fun f -> f > 0.) (coarse @ fine) |> List.sort_uniq compare

(* The tuning trace sets (and their initial lifetime templates) are
   shared across every candidate period: generating them is far more
   expensive than simulating on them.  One stripe steps a candidate
   over all of them; slots are summed in trace-set order. *)
let average_tuning_makespan ~scenario ~trace_sets ~initial_births ~period =
  let policy = Policy.periodic "tuning" ~period in
  let acc = ref 0. in
  let count = ref 0 in
  Array.iter
    (function
      | Engine.Completed m ->
          acc := !acc +. m.Engine.makespan;
          incr count
      | Engine.Policy_failed _ -> ())
    (Engine.run_stripe ~initial_births ~scenario ~traces:trace_sets ~policy ());
  if !count = 0 then infinity else !acc /. float_of_int !count

let best_period ?(factors = default_factors ()) ?(tuning_replicates = 16) ~scenario ~base_period
    () =
  if base_period <= 0. then invalid_arg "Period_search.best_period: base period must be positive";
  let work = scenario.Scenario.job.Ckpt_policies.Job.work_time in
  (* If the whole grid is unusable (no candidate in (0, work], or no
     candidate completing a tuning run), fall back to the base period
     rather than the fold's neutral element: a period of 0 would make
     [Policy.periodic] decline every chunk. *)
  let fallback = Float.min base_period work in
  let candidates =
    List.filter_map
      (fun f ->
        let p = base_period *. f in
        if p > 0. && p <= work then Some p else None)
      factors
    |> List.sort_uniq compare
  in
  let candidates = if candidates = [] then [ fallback ] else candidates in
  let trace_sets, initial_births =
    Scenario.trace_sets scenario ~first:tuning_offset ~len:tuning_replicates
  in
  (* Candidates are scored independently on the shared tuning sets:
     fan them out (composing with an enclosing study's fan-out in the
     domain pool), then pick the winner in candidate
     order so ties break as the sequential fold did. *)
  let scores =
    Ckpt_parallel.Domain_pool.parallel_map_list
      (fun p -> (p, average_tuning_makespan ~scenario ~trace_sets ~initial_births ~period:p))
      candidates
  in
  List.fold_left
    (fun (best_p, best_v) (p, v) -> if v < best_v then (p, v) else (best_p, best_v))
    (fallback, infinity) scores

let policy ?factors ?tuning_replicates scenario =
  let base_period = Optexp.period scenario.Scenario.job in
  let period, _ =
    Ckpt_telemetry.Span.time ~layer:"simulator.period_search" "best_period" (fun () ->
        best_period ?factors ?tuning_replicates ~scenario ~base_period ())
  in
  Policy.periodic "PeriodLB" ~period
