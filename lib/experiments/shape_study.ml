module P = Ckpt_platform
module S = Ckpt_simulator

type point = {
  shape : float;
  table : S.Evaluation.table;
}

type t = { points : point list }

let run ?(config = Config.default ()) ?shapes ?processors () =
  let shapes =
    match shapes with
    | Some s -> s
    | None ->
        if config.Config.full then List.init 10 (fun i -> 0.1 *. float_of_int (i + 1))
        else [ 0.3; 0.5; 0.7; 1.0 ]
  in
  let preset = P.Presets.petascale () in
  let processors =
    match processors with Some p -> p | None -> preset.P.Presets.machine.P.Machine.total_processors
  in
  let replicates = Config.scale config ~quick:8 ~full:600 in
  let store = Sweep_store.of_config config in
  let points =
    (* Low shapes are far slower to simulate than high ones (more
       failures per trace): composing with the nested replicate
       fan-out lets domains that finish the easy shapes help with the
       hard ones' replicates. *)
    Ckpt_parallel.Domain_pool.parallel_map_list
      (fun shape ->
        let dist = Setup.distribution (Setup.Weibull shape) ~mtbf:preset.P.Presets.processor_mtbf in
        let scenario =
          Setup.scenario ~config ~dist ~preset
            ~workload_model:P.Workload.Embarrassingly_parallel ~processors ()
        in
        let policies = Setup.policies scenario in
        let table =
          Sweep_store.degradation_table ?store
            ~params:[ ("shape", Printf.sprintf "%g" shape) ]
            ~experiment:(Printf.sprintf "shape_p%d" processors)
            ~scenario ~policies ~replicates ()
        in
        { shape; table })
      shapes
  in
  { points }

let print ?(config = Config.default ()) () =
  Report.print_header
    "Figure 5: degradation vs Weibull shape k (45,208 processors, MTBF 125 y)";
  let t = run ~config () in
  let tables = List.map (fun pt -> (pt.shape, pt.table)) t.points in
  let series = Report.degradation_series tables in
  Report.print_series ~x_label:"shape k" ~y_label:"average makespan degradation" series;
  if List.exists (fun s -> List.length s.Report.points > 1) series then
    Ascii_plot.print
      ~options:{ Ascii_plot.default_options with height = 14; y_max = Some 2. }
      series;
  Report.write_csv
    ~path:(Filename.concat (Report.results_dir ()) "fig5_shape.csv")
    (Report.csv_of_tables ~x_label:"shape" tables)
