module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator

type point = {
  period : float;
  average_makespan : float;
  average_energy : float;
}

type t = {
  title : string;
  points : point list;
  makespan_optimal_period : float;
  energy_optimal_period : float;
}

(* One row per replicate: [makespan; energy] of each period in turn,
   [nan] for a failed run.  Averages fold in replicate order over the
   completed runs. *)
let tradeoff ?store ~experiment ~scenario ~power ~periods ~replicates () =
  let processors = scenario.S.Scenario.job.Po.Job.processors in
  let policies = List.map (fun period -> Po.Policy.periodic "energy-sweep" ~period) periods in
  let rows =
    Sweep_store.vectors ?store ~experiment
      ~params:
        [ ("power", Printf.sprintf "%h/%h/%h" power.S.Energy.compute power.S.Energy.io
                      power.S.Energy.idle) ]
      ~scenario ~policies ~replicates ~width:(2 * List.length periods)
      ~f:
        (S.Evaluation.stripe_rows ~scenario ~policies (function
          | S.Engine.Completed m ->
              [| m.S.Engine.makespan; S.Energy.of_metrics power ~processors m |]
          | S.Engine.Policy_failed _ -> [| nan; nan |]))
      ()
  in
  List.mapi
    (fun j period ->
      let completed = List.filter (fun r -> not (Float.is_nan r.(2 * j))) (Array.to_list rows) in
      let mean c = List.fold_left (fun acc r -> acc +. r.((2 * j) + c)) 0. completed in
      let n = float_of_int (max 1 (List.length completed)) in
      { period; average_makespan = mean 0 /. n; average_energy = mean 1 /. n })
    periods

let run ?(config = Config.default ()) ?(power = S.Energy.default_power) ?processors ~preset
    ~dist_kind () =
  let processors =
    match processors with Some p -> p | None -> preset.P.Presets.machine.P.Machine.total_processors
  in
  let dist = Setup.distribution dist_kind ~mtbf:preset.P.Presets.processor_mtbf in
  let scenario =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors ()
  in
  let base = Po.Optexp.period scenario.S.Scenario.job in
  let periods = List.init 9 (fun i -> base *. (2. ** (float_of_int (i - 4) /. 2.))) in
  let replicates = Config.scale config ~quick:8 ~full:200 in
  let points =
    tradeoff
      ?store:(Sweep_store.of_config config)
      ~experiment:(Printf.sprintf "energy_p%d" processors)
      ~scenario ~power ~periods ~replicates ()
  in
  let argmin f =
    match points with
    | [] -> nan
    | p0 :: rest ->
        (List.fold_left (fun best p -> if f p < f best then p else best) p0 rest).period
  in
  {
    title =
      Printf.sprintf "Energy/makespan trade-off (%s, %d procs, %s)" preset.P.Presets.label
        processors (Setup.dist_kind_name dist_kind);
    points;
    makespan_optimal_period = argmin (fun p -> p.average_makespan);
    energy_optimal_period = argmin (fun p -> p.average_energy);
  }

let print ?(config = Config.default ()) () =
  let t = run ~config ~preset:(P.Presets.petascale ()) ~dist_kind:(Setup.Weibull 0.7) () in
  Report.print_header t.title;
  Printf.printf "%12s %16s %16s\n" "period (s)" "makespan (d)" "energy (MJ)";
  List.iter
    (fun p ->
      Printf.printf "%12.0f %16.3f %16.1f\n" p.period (p.average_makespan /. P.Units.day)
        (p.average_energy /. 1e6))
    t.points;
  Printf.printf "makespan-optimal period: %.0f s; energy-optimal period: %.0f s\n%!"
    t.makespan_optimal_period t.energy_optimal_period;
  Report.write_csv
    ~meta:[ ("experiment", t.title) ]
    ~path:(Filename.concat (Report.results_dir ()) "energy.csv")
    (Report.csv_of_rows
       ~header:[ "period_s"; "mean_makespan_s"; "mean_energy_j" ]
       (List.map
          (fun p -> List.map Report.float_cell [ p.period; p.average_makespan; p.average_energy ])
          t.points))
