module P = Ckpt_platform
module S = Ckpt_simulator

type point = {
  processors : int;
  table : S.Evaluation.table;
}

type t = {
  title : string;
  points : point list;
}

(* Quick runs keep the endpoints and the middle of the processor
   sweep; full runs keep everything. *)
let subsample full counts =
  if full then counts
  else begin
    match counts with
    | [] | [ _ ] | [ _; _ ] | [ _; _; _ ] -> counts
    | _ ->
        let n = List.length counts in
        List.filteri (fun i _ -> i = 0 || i = n / 2 || i = n - 1) counts
  end

let run ?(config = Config.default ()) ?(experiment = "scaling")
    ?(workload_model = P.Workload.Embarrassingly_parallel) ?processor_counts ~preset ~dist_kind
    () =
  let dp_makespan = match dist_kind with Setup.Exponential -> true | _ -> false in
  let counts =
    match processor_counts with
    | Some c -> c
    | None -> subsample config.Config.full preset.P.Presets.job_processor_counts
  in
  let dist = Setup.distribution dist_kind ~mtbf:preset.P.Presets.processor_mtbf in
  let replicates = Config.scale config ~quick:8 ~full:600 in
  let store = Sweep_store.of_config config in
  let sweep_params =
    [
      ("preset", preset.P.Presets.label);
      ("dist_kind", Setup.dist_kind_name dist_kind);
      ("workload", P.Workload.model_name workload_model);
    ]
  in
  (* Each point is an independent evaluation (own policies, traces,
     engine state): fan out across domains.  Points differ wildly in
     cost (more processors, slower replicates), but each point's
     replicate fan-out composes with this one in the domain pool, so
     domains finishing a cheap point help with the expensive ones'
     replicates instead of idling at the join. *)
  let points =
    Ckpt_parallel.Domain_pool.parallel_map_list
      (fun processors ->
        let scenario = Setup.scenario ~config ~dist ~preset ~workload_model ~processors () in
        let policies = Setup.policies ~dp_makespan scenario in
        let table =
          Sweep_store.degradation_table ?store ~params:sweep_params
            ~experiment:(Printf.sprintf "%s_p%d" experiment processors)
            ~scenario ~policies ~replicates ()
        in
        { processors; table })
      counts
  in
  let title =
    Printf.sprintf "%s platform, %s failures, %s, %a" preset.P.Presets.label
      (Setup.dist_kind_name dist_kind)
      (P.Workload.model_name workload_model)
      (fun () o -> Format.asprintf "%a" P.Overhead.pp o)
      preset.P.Presets.machine.P.Machine.overhead
  in
  { title; points }

let print t ~csv =
  Report.print_header t.title;
  let tables = List.map (fun pt -> (float_of_int pt.processors, pt.table)) t.points in
  let series = Report.degradation_series tables in
  Report.print_series ~x_label:"processors" ~y_label:"average makespan degradation" series;
  if List.exists (fun s -> List.length s.Report.points > 1) series then
    Ascii_plot.print
      ~options:{ Ascii_plot.default_options with log_x = true; height = 14 }
      series;
  Report.write_csv
    ~meta:[ ("experiment", t.title) ]
    ~path:(Filename.concat (Report.results_dir ()) csv)
    (Report.csv_of_tables ~x_label:"processors" tables)

let figure2 ?(config = Config.default ()) () =
  run ~config ~preset:(P.Presets.petascale ()) ~dist_kind:Setup.Exponential ()

let figure3 ?(config = Config.default ()) () =
  run ~config ~preset:(P.Presets.exascale ()) ~dist_kind:Setup.Exponential ()

let figure4 ?(config = Config.default ()) () =
  run ~config ~preset:(P.Presets.petascale ()) ~dist_kind:(Setup.Weibull 0.7) ()

let figure6 ?(config = Config.default ()) () =
  run ~config ~preset:(P.Presets.exascale ()) ~dist_kind:(Setup.Weibull 0.7) ()
