module P = Ckpt_platform
module S = Ckpt_simulator

type t = {
  table : S.Evaluation.table;
  dp_average_failures : float;
  dp_max_failures : int;
  dp_min_chunk : float;
  dp_max_chunk : float;
}

let run ?(config = Config.default ()) () =
  let preset = P.Presets.petascale () in
  let dist = Setup.distribution (Setup.Weibull 0.7) ~mtbf:preset.P.Presets.processor_mtbf in
  let scenario =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors:preset.P.Presets.machine.P.Machine.total_processors ()
  in
  (* The paper's Table 4 omits Liu (it fails at this scale/k). *)
  let policies = Setup.policies ~liu:false scenario in
  let replicates = Config.scale config ~quick:10 ~full:600 in
  let table =
    Sweep_store.degradation_table
      ?store:(Sweep_store.of_config config)
      ~experiment:"table4" ~scenario ~policies ~replicates ()
  in
  let dp =
    List.find_opt
      (fun r -> r.S.Evaluation.policy_name = "DPNextFailure")
      table.S.Evaluation.results
  in
  match dp with
  | None -> invalid_arg "Table4.run: DPNextFailure missing from roster"
  | Some dp ->
      {
        table;
        dp_average_failures = dp.S.Evaluation.average_failures;
        dp_max_failures = dp.S.Evaluation.max_failures;
        dp_min_chunk = dp.S.Evaluation.min_chunk;
        dp_max_chunk = dp.S.Evaluation.max_chunk;
      }

let print ?(config = Config.default ()) () =
  Report.print_header
    "Table 4: 45,208 processors, Weibull k=0.7, embarrassingly parallel, constant C";
  let t = run ~config () in
  Report.print_table t.table;
  Report.write_csv
    ~meta:[ ("experiment", "Table 4: 45,208 processors, Weibull k=0.7") ]
    ~path:(Filename.concat (Report.results_dir ()) "table4.csv")
    (Report.csv_of_table t.table);
  Printf.printf
    "DPNextFailure failures per run: avg %.1f, max %d (paper: ~38 avg, 66 max)\n"
    t.dp_average_failures t.dp_max_failures;
  Printf.printf "DPNextFailure chunk sizes: %.0f s .. %.0f s (paper: 2,984 .. 6,108 s)\n%!"
    t.dp_min_chunk t.dp_max_chunk
