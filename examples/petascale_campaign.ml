(* Planning a Petascale campaign: how many processors should a job
   enroll on a failure-prone machine, and which checkpoint policy
   should drive it?

     dune exec examples/petascale_campaign.exe

   On a fault-free machine more processors always help; with failures
   the expected makespan can be minimized by enrolling fewer (the
   paper's Section 8 observation).  This example sweeps enrollments on
   a Jaguar-like machine for an Amdahl-law application under Weibull
   failures, then evaluates the policy roster at the chosen size. *)

module Weibull = Ckpt_distributions.Weibull
module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator

let () =
  let preset = P.Presets.petascale () in
  let dist = Weibull.of_mtbf ~mtbf:preset.P.Presets.processor_mtbf ~shape:0.7 in
  let workload =
    P.Workload.create ~total_work:preset.P.Presets.total_work ~model:(P.Workload.Amdahl 1e-6)
  in
  let replicates = 6 in

  print_endline "Enrollment sweep (DPNextFailure policy, Weibull k=0.7):";
  Printf.printf "%12s %16s %14s\n" "processors" "makespan (days)" "speedup";
  let candidates = [ 1 lsl 11; 1 lsl 13; 1 lsl 15; preset.P.Presets.machine.P.Machine.total_processors ] in
  let results =
    List.filter_map
      (fun processors ->
        let job =
          Po.Job.of_workload ~dist ~processors ~machine:preset.P.Presets.machine ~workload
        in
        let scenario = S.Scenario.create job in
        let policy = Po.Dp_policies.dp_next_failure job in
        Ckpt_experiments.Makespan_vs_p.policy_makespan ~experiment:"campaign" ~scenario ~policy
          ~replicates ()
        |> Option.map (fun (m, _) ->
               Printf.printf "%12d %16.2f %14.0f\n%!" processors (m /. P.Units.day)
                 (preset.P.Presets.total_work /. m);
               (processors, m)))
      candidates
  in
  let best_p, _ =
    List.fold_left (fun (bp, bm) (p, m) -> if m < bm then (p, m) else (bp, bm))
      (0, infinity) results
  in
  Printf.printf "\nBest enrollment among candidates: %d processors\n\n" best_p;

  let job = Po.Job.of_workload ~dist ~processors:best_p ~machine:preset.P.Presets.machine ~workload in
  let scenario = S.Scenario.create job in
  let policies =
    [
      Po.Young.policy job;
      Po.Daly.low job;
      Po.Daly.high job;
      Po.Optexp.policy job;
      Po.Bouguerra.policy job;
      Po.Liu.policy job;
      Po.Dp_policies.dp_next_failure job;
    ]
  in
  Printf.printf "Policy comparison at %d processors:\n" best_p;
  let table = S.Evaluation.degradation_table ~scenario ~policies ~replicates in
  Format.printf "%a@." S.Evaluation.pp_table table
