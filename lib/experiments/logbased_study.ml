module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator
module F = Ckpt_failures

type cluster = Cluster18 | Cluster19

type point = {
  processors : int;
  table : S.Evaluation.table;
}

type t = {
  cluster : cluster;
  empirical_mtbf : float;
  points : point list;
}

let log_for = function
  | Cluster18 -> F.Lanl_synth.generate F.Lanl_synth.cluster18_parameters
  | Cluster19 -> F.Lanl_synth.generate F.Lanl_synth.cluster19_parameters

let cluster_name = function Cluster18 -> "cluster 18" | Cluster19 -> "cluster 19"

let run ?(config = Config.default ()) ?processor_counts ~cluster () =
  let log = log_for cluster in
  let dist = F.Failure_log.to_distribution log in
  let counts =
    match processor_counts with
    | Some c -> c
    | None ->
        let all = [ 1 lsl 12; 1 lsl 13; 1 lsl 14; 1 lsl 15 ] in
        if config.Config.full then all else [ 1 lsl 12; 1 lsl 14 ]
  in
  let preset = P.Presets.petascale () in
  let replicates = Config.scale config ~quick:8 ~full:600 in
  let store = Sweep_store.of_config config in
  let points =
    (* Two-to-four processor counts whose cost grows with the count:
       the nested replicate fan-out composes in the domain pool, so
       the sweep does not serialize on its widest point. *)
    Ckpt_parallel.Domain_pool.parallel_map_list
      (fun processors ->
        let scenario =
          Setup.scenario ~config ~dist ~preset
            ~workload_model:P.Workload.Embarrassingly_parallel ~processors
            ~group_size:F.Lanl_synth.node_group_size ()
        in
        (* Liu / Bouguerra / DPMakespan are not applicable here
           (Section 6); OptExp and the Daly family pretend the
           distribution is Exponential with the empirical MTBF. *)
        let policies = Setup.policies ~liu:false ~bouguerra:false scenario in
        let table =
          Sweep_store.degradation_table ?store
            ~params:[ ("cluster", cluster_name cluster) ]
            ~experiment:
              (Printf.sprintf "logbased_%s_p%d"
                 (match cluster with Cluster18 -> "c18" | Cluster19 -> "c19")
                 processors)
            ~scenario ~policies ~replicates ()
        in
        { processors; table })
      counts
  in
  { cluster; empirical_mtbf = F.Failure_log.mean_interval log; points }

let print ?(config = Config.default ()) ~cluster () =
  let t = run ~config ~cluster () in
  Report.print_header
    (Printf.sprintf
       "Figure %s: log-based failures (synthetic LANL %s; node MTBF %.2e s)"
       (match cluster with Cluster19 -> "7" | Cluster18 -> "100a")
       (cluster_name cluster) t.empirical_mtbf);
  let tables = List.map (fun pt -> (float_of_int pt.processors, pt.table)) t.points in
  let series = Report.degradation_series tables in
  Report.print_series ~x_label:"processors" ~y_label:"average makespan degradation" series;
  Report.write_csv
    ~path:
      (Filename.concat (Report.results_dir ())
         (match cluster with Cluster19 -> "fig7_logbased.csv" | Cluster18 -> "fig100_logbased.csv"))
    (Report.csv_of_tables ~x_label:"processors" tables)
