module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator
module Summary = Ckpt_numerics.Summary

type t = {
  processors : int;
  replicates : int;
  mean_failures : float;
  max_failures : int;
  q50 : float;
  q90 : float;
  q99 : float;
  suggested_spares : int;
  profile : S.Evaluation.waste_profile option;
}

(* Per-replicate row persisted through the sweep store: the failure
   count followed by the engine's waste decomposition.  A replicate on
   which the policy failed is a row of NaNs — kept in the store (so
   the row count always equals the replicate count) and skipped when
   aggregating. *)
let row_width = 7

let row_of_outcome outcome =
  let failures =
    match outcome with
    | S.Engine.Completed m -> float_of_int m.S.Engine.failures
    | S.Engine.Policy_failed _ -> nan
  in
  Array.append [| failures |] (S.Evaluation.components_of_outcome outcome)

let run ?(config = Config.default ()) ?processors () =
  let preset = P.Presets.petascale () in
  let processors =
    match processors with Some p -> p | None -> preset.P.Presets.machine.P.Machine.total_processors
  in
  let dist = Setup.distribution (Setup.Weibull 0.7) ~mtbf:preset.P.Presets.processor_mtbf in
  let scenario =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors ()
  in
  let policy = Po.Dp_policies.dp_next_failure scenario.S.Scenario.job in
  let replicates = Config.scale config ~quick:10 ~full:600 in
  let rows =
    Sweep_store.vectors
      ?store:(Sweep_store.of_config config)
      ~experiment:(Printf.sprintf "spares_p%d" processors)
      ~params:[ ("policy", policy.Po.Policy.name) ]
      ~scenario ~replicates ~width:row_width
      ~f:(S.Evaluation.stripe_rows ~scenario ~policies:[ policy ] row_of_outcome)
      ()
    |> Array.to_list
    |> List.filter (fun r -> not (Float.is_nan r.(0)))
  in
  let counts = Array.of_list (List.map (fun r -> r.(0)) rows) in
  let profile =
    S.Evaluation.profile_of_components (List.map (fun r -> Array.sub r 1 (row_width - 1)) rows)
  in
  let s = Summary.of_array counts in
  let q99 = Summary.quantile counts 0.99 in
  {
    processors;
    replicates;
    mean_failures = Summary.mean s;
    max_failures = int_of_float (Summary.max_value s);
    q50 = Summary.median counts;
    q90 = Summary.quantile counts 0.9;
    q99;
    suggested_spares = int_of_float (ceil q99);
    profile;
  }

let print ?(config = Config.default ()) () =
  Report.print_header "Section 5.2.2: spare-processor sizing (DPNextFailure, Weibull k=0.7)";
  let t = run ~config () in
  Printf.printf
    "%d processors, %d runs: failures per run mean %.1f, median %.0f, q90 %.0f, q99 %.0f, max %d\n"
    t.processors t.replicates t.mean_failures t.q50 t.q90 t.q99 t.max_failures;
  Printf.printf "suggested spare pool (q99 of per-run failures): %d  (paper: ~38 avg / 66 max)\n%!"
    t.suggested_spares;
  let csv =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      "processors,replicates,mean_failures,q50_failures,q90_failures,q99_failures,max_failures,suggested_spares";
    List.iter (fun c -> Buffer.add_string buf ("," ^ c)) Report.profile_columns;
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "%d,%d,%g,%g,%g,%g,%d,%d" t.processors t.replicates
         t.mean_failures t.q50 t.q90 t.q99 t.max_failures t.suggested_spares);
    List.iter
      (fun c -> Buffer.add_string buf ("," ^ c))
      (Report.profile_values t.profile);
    Buffer.add_char buf '\n';
    Buffer.contents buf
  in
  Report.write_csv
    ~path:(Filename.concat (Report.results_dir ()) "spares.csv")
    csv
