module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator

let run ?(config = Config.default ()) ?(processors = 1 lsl 13) ?(shape = 0.7) () =
  let preset = P.Presets.petascale () in
  let dist = Setup.distribution (Setup.Weibull shape) ~mtbf:preset.P.Presets.processor_mtbf in
  let scenario =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors ()
  in
  let job = scenario.S.Scenario.job in
  let dpnf = Po.Dp_policies.dp_next_failure job in
  let baselines = [ Po.Optexp.policy job; Po.Young.policy job ] in
  let policies = dpnf :: baselines in
  let replicates = Config.scale config ~quick:12 ~full:200 in
  (* DPNextFailure runs once and pairs with each baseline. *)
  let rows =
    Sweep_store.vectors
      ?store:(Sweep_store.of_config config)
      ~experiment:(Printf.sprintf "significance_p%d" processors)
      ~scenario ~policies ~replicates ~width:(List.length policies)
      ~f:
        (S.Evaluation.stripe_rows ~scenario ~policies (function
          | S.Engine.Completed m -> [| m.S.Engine.makespan |]
          | S.Engine.Policy_failed _ -> [| nan |]))
      ()
  in
  List.mapi
    (fun j baseline ->
      S.Significance.of_makespans ~a:dpnf.Po.Policy.name ~b:baseline.Po.Policy.name
        (Array.map (fun row -> (row.(0), row.(j + 1))) rows))
    baselines

let print ?(config = Config.default ()) () =
  Report.print_header
    "Paired significance: DPNextFailure vs periodic heuristics (Weibull k=0.7, 8,192 procs)";
  let comparisons = run ~config () in
  List.iter (fun c -> Format.printf "%a@.@." S.Significance.pp c) comparisons;
  Report.write_csv
    ~path:(Filename.concat (Report.results_dir ()) "significance.csv")
    (Report.csv_of_rows
       ~header:
         [
           "policy_a"; "policy_b"; "paired_runs"; "mean_difference_s"; "mean_ratio"; "a_wins";
           "b_wins"; "ties"; "sign_test_p";
         ]
       (List.map
          (fun (c : S.Significance.t) ->
            [
              c.policy_a; c.policy_b; string_of_int c.paired_runs;
              Report.float_cell c.mean_difference; Report.float_cell c.mean_ratio;
              string_of_int c.a_wins; string_of_int c.b_wins; string_of_int c.ties;
              Report.float_cell c.sign_test_p;
            ])
          comparisons))
