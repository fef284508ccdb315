(* Checkpointing an application whose footprint grows as it runs —
   the extension sketched in the paper's conclusion ("checkpoint and
   restart costs ... depend on the progress of the application").

     dune exec examples/growing_footprint.exe

   Think adaptive mesh refinement: the state to save starts small and
   triples by the end.  We compare three deployments under the true,
   progress-dependent cost:

     1. OptExp tuned to the average cost (constant-cost thinking);
     2. DPNextFailure with the average cost (age-adaptive only);
     3. DPNextFailure re-planned with the cost at its current progress
        (age- and cost-adaptive).                                      *)

module Weibull = Ckpt_distributions.Weibull
module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator

(* C(progress) = R(progress): 300 s at the start, 900 s at the end. *)
let profile ~progress =
  let c = 600. *. (0.5 +. progress) in
  (c, c)

let () =
  let processors = 1 lsl 13 in
  let dist = Weibull.of_mtbf ~mtbf:(P.Units.of_years 125.) ~shape:0.7 in
  let machine =
    P.Machine.create ~total_processors:processors ~downtime:60.
      ~overhead:(P.Overhead.constant 600.)
  in
  let job =
    Po.Job.create ~dist ~processors ~machine
      ~work_time:(P.Units.of_years 1000. /. float_of_int processors)
  in
  let scenario = S.Scenario.create job in
  let contenders =
    [
      ("OptExp, average C", Po.Optexp.policy job);
      ("DPNextFailure, average C", Po.Dp_policies.dp_next_failure job);
      ("DPNextFailure, profiled C", Po.Dp_policies.dp_next_failure ~cost_profile:profile job);
    ]
  in
  let replicates = 8 in
  Printf.printf "%d processors, Weibull k=0.7, C grows 300 s -> 900 s with progress\n\n"
    processors;
  Printf.printf "%-28s %16s\n" "policy" "avg makespan (d)";
  (* One stripe: the trace sets are generated once for all contenders. *)
  let runs =
    S.Evaluation.stripe_runs ~cost_profile:profile ~scenario
      ~policies:(List.map snd contenders) ~first:0 ~len:replicates ()
  in
  List.iteri
    (fun j (name, _) ->
      let acc = ref 0. in
      Array.iter
        (function
          | S.Engine.Completed m -> acc := !acc +. m.S.Engine.makespan
          | S.Engine.Policy_failed _ -> ())
        runs.(j);
      Printf.printf "%-28s %16.3f\n%!" name (!acc /. float_of_int replicates /. P.Units.day))
    contenders;
  print_endline
    "\nThe profiled DP checkpoints often early, while a checkpoint costs\n\
     300 s, and stretches its chunks late, when each costs 900 s."
