module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator

type t = {
  title : string;
  factors : float list;
  sweep : (float * float) list;
  references : (string * float) list;
}

(* Degradations here are normalized by the best reference-policy
   makespan per trace, so the sweep and the heuristics share a
   baseline. *)
let run ?(config = Config.default ()) ?(log2_range = 4) ~experiment ~scenario ~policies () =
  let replicates = Config.scale config ~quick:6 ~full:600 in
  let base_period = Po.Optexp.period scenario.S.Scenario.job in
  let steps = if config.Config.full then 2 * log2_range * 2 else 2 * log2_range in
  let factors =
    List.init (steps + 1) (fun i ->
        -.float_of_int log2_range +. (float_of_int i *. 2. *. float_of_int log2_range /. float_of_int steps))
  in
  let periods = List.map (fun f -> base_period *. (2. ** f)) factors in
  let sweep_policies =
    List.map2
      (fun f period -> Po.Policy.periodic (Printf.sprintf "sweep%g" f) ~period)
      factors periods
  in
  let table =
    Sweep_store.degradation_table
      ?store:(Sweep_store.of_config config)
      ~params:[ ("periods", String.concat "," (List.map (Printf.sprintf "%h") periods)) ]
      ~experiment ~scenario ~policies:(policies @ sweep_policies) ~replicates ()
  in
  let find name =
    List.find_opt (fun r -> r.S.Evaluation.policy_name = name) table.S.Evaluation.results
  in
  let degradation name =
    match find name with
    | Some r when r.S.Evaluation.successes > 0 -> r.S.Evaluation.average_degradation
    | Some _ | None -> nan
  in
  let sweep = List.map (fun f -> (f, degradation (Printf.sprintf "sweep%g" f))) factors in
  let references =
    ("LowerBound", table.S.Evaluation.lower_bound.S.Evaluation.average_degradation)
    :: List.map (fun p -> (p.Po.Policy.name, degradation p.Po.Policy.name)) policies
  in
  { title = "period sweep"; factors; sweep; references }

let sequential ?(config = Config.default ()) ~dist_kind ~mtbf () =
  let dist = Setup.distribution dist_kind ~mtbf in
  let preset = P.Presets.one_processor ~mtbf in
  let scenario =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors:1 ()
  in
  let policies = Setup.policies ~dp_makespan:true ~period_lb:false scenario in
  let t =
    run ~config ~log2_range:4
      ~experiment:(Printf.sprintf "appendix_a_mtbf%gh" (mtbf /. P.Units.hour))
      ~scenario ~policies ()
  in
  {
    t with
    title =
      Printf.sprintf "Appendix A: 1 processor, %s, MTBF %g h (period multiplier sweep)"
        (Setup.dist_kind_name dist_kind) (mtbf /. P.Units.hour);
  }

let print t ~csv =
  Report.print_header t.title;
  Printf.printf "heuristic reference levels (avg degradation):\n";
  List.iter (fun (name, v) -> Printf.printf "  %-16s %s\n" name
                (if Float.is_nan v then "-" else Printf.sprintf "%.5f" v))
    t.references;
  let series = [ { Report.label = "PeriodVariation"; points = t.sweep } ] in
  Report.print_series ~x_label:"log2(factor)" ~y_label:"average makespan degradation" series;
  Report.write_csv
    ~path:(Filename.concat (Report.results_dir ()) csv)
    (Report.csv_of_series ~x_label:"log2_factor" series)
