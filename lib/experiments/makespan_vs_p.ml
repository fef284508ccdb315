module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator

type curve = {
  workload_name : string;
  points : (int * float) list;
  profiles : (int * S.Evaluation.waste_profile) list;
  best_processors : int;
}

type t = {
  title : string;
  curves : curve list;
}

let policy_makespan ?store ?(params = []) ~experiment ~scenario ~policy ~replicates () =
  Sweep_store.vectors ?store ~experiment
    ~params:(("policy", policy.Po.Policy.name) :: params)
    ~scenario ~replicates ~width:6
    ~f:(S.Evaluation.stripe_rows ~scenario ~policies:[ policy ] S.Evaluation.components_of_outcome)
    ()
  |> S.Evaluation.mean_and_profile

let run ?(config = Config.default ()) ?processor_counts ~preset ~dist_kind ~policy_kind () =
  let counts =
    match processor_counts with
    | Some c -> c
    | None ->
        let all = preset.P.Presets.job_processor_counts in
        if config.Config.full then all
        else begin
          match all with
          | a :: _ -> [ a; List.nth all (List.length all / 2); List.nth all (List.length all - 1) ]
          | [] -> []
        end
  in
  let dist = Setup.distribution dist_kind ~mtbf:preset.P.Presets.processor_mtbf in
  let replicates = Config.scale config ~quick:6 ~full:600 in
  let store = Sweep_store.of_config config in
  let curves =
    List.map
      (fun workload_model ->
        (* Independent points: fan out, each point's stripes composing
           with this fan-out in the domain pool. *)
        let evaluated =
          Ckpt_parallel.Domain_pool.parallel_map_list
            (fun processors ->
              let scenario =
                Setup.scenario ~config ~dist ~preset ~workload_model ~processors ()
              in
              let job = scenario.S.Scenario.job in
              let policy =
                match policy_kind with
                | `Optexp -> Po.Optexp.policy job
                | `Dp_next_failure -> Po.Dp_policies.dp_next_failure job
              in
              policy_makespan ?store
                ~params:[ ("workload", P.Workload.model_name workload_model) ]
                ~experiment:(Printf.sprintf "appendix_d_p%d" processors)
                ~scenario ~policy ~replicates ()
              |> Option.map (fun (m, profile) -> (processors, m, profile)))
            counts
          |> List.filter_map Fun.id
        in
        let points = List.map (fun (p, m, _) -> (p, m)) evaluated in
        let profiles = List.map (fun (p, _, profile) -> (p, profile)) evaluated in
        let best_processors =
          match points with
          | [] -> 0
          | (p0, m0) :: rest ->
              fst (List.fold_left (fun (bp, bm) (p, m) -> if m < bm then (p, m) else (bp, bm))
                     (p0, m0) rest)
        in
        { workload_name = P.Workload.model_name workload_model; points; profiles;
          best_processors })
      (P.Workload.all_paper_models ())
  in
  let policy_name = match policy_kind with `Optexp -> "OptExp" | `Dp_next_failure -> "DPNextFailure" in
  {
    title =
      Printf.sprintf "Appendix D: average makespan vs p (%s, %s, %s)" policy_name
        (Setup.dist_kind_name dist_kind) preset.P.Presets.label;
    curves;
  }

let figure98 ?(config = Config.default ()) ~proportional () =
  run ~config ~preset:(P.Presets.petascale ~proportional_overhead:proportional ())
    ~dist_kind:Setup.Exponential ~policy_kind:`Optexp ()

let figure99 ?(config = Config.default ()) () =
  run ~config ~preset:(P.Presets.petascale ()) ~dist_kind:(Setup.Weibull 0.7)
    ~policy_kind:`Dp_next_failure ()

let print t ~csv =
  Report.print_header t.title;
  let series =
    List.map
      (fun c ->
        {
          Report.label = c.workload_name;
          points = List.map (fun (p, m) -> (float_of_int p, m /. P.Units.day)) c.points;
        })
      t.curves
  in
  Report.print_series ~x_label:"processors" ~y_label:"average makespan (days)" series;
  List.iter
    (fun c -> Printf.printf "best enrollment for %s: %d processors\n" c.workload_name c.best_processors)
    t.curves;
  Report.write_csv
    ~path:(Filename.concat (Report.results_dir ()) csv)
    (Report.csv_of_series ~x_label:"processors" series
       ~extra_header:
         (List.concat_map
            (fun c -> List.map (fun col -> c.workload_name ^ "_" ^ col) Report.profile_columns)
            t.curves)
       ~extra_cells:(fun x ->
         List.concat_map
           (fun c ->
             Report.profile_values
               (List.find_map
                  (fun (p, profile) -> if float_of_int p = x then Some profile else None)
                  c.profiles))
           t.curves))
