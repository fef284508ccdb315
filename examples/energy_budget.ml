(* Trading execution time for energy (the paper's Section 8 future-work
   direction, implemented as a library extension).

     dune exec examples/energy_budget.exe

   The checkpoint period moves energy between two sinks: short periods
   pay checkpoint I/O on every processor; long periods pay
   recomputation after failures.  This example sweeps the period on a
   2^14-processor Weibull platform and prints the Pareto view. *)

module Weibull = Ckpt_distributions.Weibull
module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator

let () =
  let preset = P.Presets.petascale () in
  let processors = 1 lsl 14 in
  let dist = Weibull.of_mtbf ~mtbf:preset.P.Presets.processor_mtbf ~shape:0.7 in
  let workload =
    P.Workload.create ~total_work:preset.P.Presets.total_work
      ~model:P.Workload.Embarrassingly_parallel
  in
  let job = Po.Job.of_workload ~dist ~processors ~machine:preset.P.Presets.machine ~workload in
  let scenario = S.Scenario.create job in
  let base = Po.Optexp.period job in
  let periods = List.init 7 (fun i -> base *. (2. ** float_of_int (i - 3))) in
  let power = S.Energy.default_power in
  Printf.printf "per-processor power: %.0f W compute / %.0f W I/O / %.0f W idle\n\n"
    power.S.Energy.compute power.S.Energy.io power.S.Energy.idle;
  Printf.printf "%14s %16s %14s\n" "period (s)" "makespan (days)" "energy (GJ)";
  let rows =
    List.map
      (fun p ->
        Ckpt_experiments.Energy_study.(p.period, p.average_makespan, p.average_energy))
      (Ckpt_experiments.Energy_study.tradeoff ~experiment:"energy_budget" ~scenario ~power
         ~periods ~replicates:6 ())
  in
  List.iter
    (fun (period, makespan, energy) ->
      Printf.printf "%14.0f %16.3f %14.2f%s\n" period (makespan /. P.Units.day) (energy /. 1e9)
        (if period = base then "   <- OptExp" else ""))
    rows;
  let _, best_m, _ = List.fold_left (fun (bp, bm, be) (p, m, e) -> if m < bm then (p, m, e) else (bp, bm, be)) (0., infinity, 0.) rows in
  let _, _, best_e = List.fold_left (fun (bp, bm, be) (p, m, e) -> if e < be then (p, m, e) else (bp, bm, be)) (0., 0., infinity) rows in
  Printf.printf
    "\nFastest run: %.3f days; cheapest run: %.2f GJ — the knee of the curve\n\
     is where a site's energy price decides the period.\n"
    (best_m /. P.Units.day) (best_e /. 1e9)
