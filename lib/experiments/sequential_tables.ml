module P = Ckpt_platform
module S = Ckpt_simulator

type result = {
  mtbf_label : string;
  table : S.Evaluation.table;
}

let default_mtbfs =
  [ ("1 hour", P.Units.hour); ("1 day", P.Units.day); ("1 week", P.Units.week) ]

let run ?(config = Config.default ()) ~dist_kind ?(mtbfs = default_mtbfs) () =
  (* Only three MTBF points: on a wide machine the parallelism comes
     from each point's replicate fan-out, which the domain pool lets
     the remaining domains join instead of idling. *)
  Ckpt_parallel.Domain_pool.parallel_map_list
    (fun (mtbf_label, mtbf) ->
      let dist = Setup.distribution dist_kind ~mtbf in
      let preset = P.Presets.one_processor ~mtbf in
      let scenario =
        Setup.scenario ~config ~dist ~preset
          ~workload_model:P.Workload.Embarrassingly_parallel ~processors:1 ()
      in
      let policies = Setup.policies ~dp_makespan:true scenario in
      let replicates = Config.scale config ~quick:8 ~full:600 in
      {
        mtbf_label;
        table =
          Sweep_store.degradation_table
            ?store:(Sweep_store.of_config config)
            ~params:[ ("dist_kind", Setup.dist_kind_name dist_kind) ]
            ~experiment:("sequential_" ^ mtbf_label) ~scenario ~policies ~replicates ();
      })
    mtbfs

let print ?(config = Config.default ()) ~dist_kind () =
  let name = Setup.dist_kind_name dist_kind in
  let number = match dist_kind with Setup.Exponential -> "2" | _ -> "3" in
  Report.print_header
    (Printf.sprintf "Table %s: single processor, %s failures (degradation from best)" number name);
  List.iter
    (fun r ->
      Printf.printf "-- MTBF = %s --\n" r.mtbf_label;
      Report.print_table r.table;
      Report.write_csv
        ~meta:[ ("mtbf", r.mtbf_label); ("distribution", name) ]
        ~path:
          (Filename.concat (Report.results_dir ())
             (Printf.sprintf "table%s_%s.csv" number
                (String.map (fun c -> if c = ' ' then '_' else c) r.mtbf_label)))
        (Report.csv_of_table r.table))
    (run ~config ~dist_kind ())
