module P = Ckpt_platform

type cell = {
  preset : P.Presets.t;
  dist_kind : Setup.dist_kind;
  workload_model : P.Workload.model;
  mtbf_years : float;
}

let cell_name c =
  let overhead =
    match c.preset.P.Presets.machine.P.Machine.overhead with
    | P.Overhead.Constant _ -> "constC"
    | P.Overhead.Proportional _ -> "propC"
  in
  Printf.sprintf "%s_%s_%s_%s_mtbf%gy" c.preset.P.Presets.label
    (Setup.dist_kind_name c.dist_kind)
    (P.Workload.model_name c.workload_model)
    overhead c.mtbf_years

let petascale_cell ~proportional ~dist_kind ~workload_model ~mtbf_years =
  {
    preset =
      P.Presets.petascale ~proportional_overhead:proportional
        ~mtbf:(P.Units.of_years mtbf_years) ();
    dist_kind;
    workload_model;
    mtbf_years;
  }

let exascale_cell ~proportional ~dist_kind ~workload_model ~mtbf_years =
  {
    preset =
      P.Presets.exascale ~proportional_overhead:proportional ~mtbf:(P.Units.of_years mtbf_years)
        ();
    dist_kind;
    workload_model;
    mtbf_years;
  }

let dist_kinds = [ Setup.Exponential; Setup.Weibull 0.7 ]

let petascale_cells ~full =
  if full then
    List.concat_map
      (fun proportional ->
        List.concat_map
          (fun dist_kind ->
            List.concat_map
              (fun workload_model ->
                List.map
                  (fun mtbf_years ->
                    petascale_cell ~proportional ~dist_kind ~workload_model ~mtbf_years)
                  [ 125.; 500. ])
              (P.Workload.all_paper_models ()))
          dist_kinds)
      [ false; true ]
  else
    [
      petascale_cell ~proportional:true ~dist_kind:Setup.Exponential
        ~workload_model:P.Workload.Embarrassingly_parallel ~mtbf_years:125.;
      petascale_cell ~proportional:false ~dist_kind:(Setup.Weibull 0.7)
        ~workload_model:(P.Workload.Amdahl 1e-6) ~mtbf_years:125.;
      petascale_cell ~proportional:false ~dist_kind:(Setup.Weibull 0.7)
        ~workload_model:(P.Workload.Numerical_kernel 1.) ~mtbf_years:500.;
    ]

let exascale_cells ~full =
  if full then
    List.concat_map
      (fun dist_kind ->
        List.map
          (fun workload_model ->
            exascale_cell ~proportional:false ~dist_kind ~workload_model ~mtbf_years:1250.)
          (P.Workload.all_paper_models ()))
      dist_kinds
  else
    [
      exascale_cell ~proportional:false ~dist_kind:(Setup.Weibull 0.7)
        ~workload_model:(P.Workload.Numerical_kernel 0.1) ~mtbf_years:1250.;
    ]

let run_cell ?(config = Config.default ()) cell =
  Scaling_study.run ~config
    ~experiment:("grid_" ^ cell_name cell)
    ~workload_model:cell.workload_model ~preset:cell.preset ~dist_kind:cell.dist_kind ()

(* Panels (a)/(b) of each appendix figure: the period-multiplier sweep
   at a small and (in full runs) at the largest enrollment. *)
let print_period_panels ~config cell =
  let counts =
    let all = cell.preset.P.Presets.job_processor_counts in
    let largest = List.nth all (List.length all - 1) in
    if config.Config.full then [ List.hd all; largest ] else [ List.hd all ]
  in
  List.iter
    (fun processors ->
      let dist =
        Setup.distribution cell.dist_kind ~mtbf:cell.preset.P.Presets.processor_mtbf
      in
      let scenario =
        Setup.scenario ~config ~dist ~preset:cell.preset ~workload_model:cell.workload_model
          ~processors ()
      in
      let policies = Setup.policies ~period_lb:false scenario in
      let sweep =
        Period_sweep.run ~config ~log2_range:8
          ~experiment:(Printf.sprintf "grid_%s_p%d_sweep" (cell_name cell) processors)
          ~scenario ~policies ()
      in
      Period_sweep.print
        {
          sweep with
          Period_sweep.title =
            Printf.sprintf "%s, %d processors: period-multiplier panel" (cell_name cell)
              processors;
        }
        ~csv:(Printf.sprintf "grid_%s_p%d_sweep.csv" (cell_name cell) processors))
    counts

let print ?(config = Config.default ()) ~cells () =
  List.iter
    (fun cell ->
      let t = run_cell ~config cell in
      Scaling_study.print t ~csv:(Printf.sprintf "grid_%s.csv" (cell_name cell));
      print_period_panels ~config cell)
    cells
