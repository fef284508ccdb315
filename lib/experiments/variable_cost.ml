module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator

type result = {
  policy_name : string;
  average_makespan : float;
  average_degradation : float;
}

let profile ~progress =
  let c = 600. *. (0.5 +. progress) in
  (c, c)

let run ?(config = Config.default ()) ?(processors = 1 lsl 13) () =
  let preset = P.Presets.petascale () in
  let dist = Setup.distribution (Setup.Weibull 0.7) ~mtbf:preset.P.Presets.processor_mtbf in
  let scenario =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors ()
  in
  let job = scenario.S.Scenario.job in
  let replicates = Config.scale config ~quick:8 ~full:200 in
  let contenders =
    [
      ("OptExp(nominal C)", Po.Optexp.policy job);
      ("DPNextFailure(nominal C)", Po.Dp_policies.dp_next_failure job);
      ("DPNextFailure(profiled C)", Po.Dp_policies.dp_next_failure ~cost_profile:profile job);
    ]
  in
  (* All contenders execute under the true progress-dependent costs;
     one makespan per contender and replicate, [infinity] for a failed
     run. *)
  let rows =
    Sweep_store.vectors
      ?store:(Sweep_store.of_config config)
      ~experiment:(Printf.sprintf "variable_cost_p%d" processors)
      ~params:
        [
          ("contenders", String.concat "," (List.map fst contenders));
          ("cost_profile", "600*(0.5+progress)");
        ]
      ~scenario ~replicates ~width:(List.length contenders)
      ~f:
        (S.Evaluation.stripe_rows ~cost_profile:profile ~scenario
           ~policies:(List.map snd contenders) (function
          | S.Engine.Completed m -> [| m.S.Engine.makespan |]
          | S.Engine.Policy_failed _ -> [| infinity |]))
      ()
  in
  let totals = Array.make (List.length contenders) 0. in
  let bests = ref 0. in
  Array.iter
    (fun makespans ->
      bests := !bests +. Array.fold_left Float.min infinity makespans;
      Array.iteri (fun i m -> totals.(i) <- totals.(i) +. m) makespans)
    rows;
  let n = float_of_int replicates in
  List.mapi
    (fun i (policy_name, _) ->
      {
        policy_name;
        average_makespan = totals.(i) /. n;
        average_degradation = totals.(i) /. !bests;
      })
    contenders

let print ?(config = Config.default ()) () =
  Report.print_header
    "Conclusion extension: progress-dependent checkpoint cost (C grows 0.5x -> 1.5x)";
  let results = run ~config () in
  List.iter
    (fun r ->
      Printf.printf "%-28s avg makespan %10.0f s   degradation %.5f\n" r.policy_name
        r.average_makespan r.average_degradation)
    results;
  print_endline "The profile-aware DP shifts checkpoints toward the cheap early phase.";
  Report.write_csv
    ~meta:[ ("cost_profile", "600*(0.5+progress)") ]
    ~path:(Filename.concat (Report.results_dir ()) "variable_cost.csv")
    (Report.csv_of_rows
       ~header:[ "policy"; "avg_makespan_s"; "avg_degradation" ]
       (List.map
          (fun r ->
            [
              r.policy_name; Report.float_cell r.average_makespan;
              Report.float_cell r.average_degradation;
            ])
          results))
