module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator
module F = Ckpt_failures

type result = {
  full_platform_makespan : float;
  half_platform_makespan : float;
  replicated_makespan : float;
}

(* One replicated execution: two independent p/2-processor trace sets,
   chunks commit when either replica survives chunk + checkpoint. *)
let simulate_replicated ~job ~period ~traces_a ~traces_b ~start_time =
  let c = Po.Job.checkpoint_cost job in
  let r = Po.Job.recovery_cost job in
  let d = Po.Job.downtime job in
  let next traces t =
    match F.Trace_set.next_platform_failure traces ~after:t with
    | Some (date, _) -> date
    | None -> infinity
  in
  let now = ref start_time in
  let remaining = ref job.Po.Job.work_time in
  while !remaining > 1e-6 do
    let chunk = Float.min period !remaining in
    let finish = !now +. chunk +. c in
    let fa = next traces_a !now and fb = next traces_b !now in
    if fa >= finish || fb >= finish then begin
      (* At least one replica commits the checkpoint; the other adopts
         it (repair overlaps execution). *)
      now := finish;
      remaining := !remaining -. chunk
    end
    else begin
      (* Both replicas struck: lose the chunk, resume after the later
         failure's downtime plus a recovery. *)
      now := Float.max fa fb +. d +. r
    end
  done;
  !now -. start_time

let average_periodic_makespan ?store ~scenario ~replicates () =
  let period = Po.Optexp.period scenario.S.Scenario.job in
  Makespan_vs_p.policy_makespan ?store
    ~params:[ ("period", Printf.sprintf "%h" period) ]
    ~experiment:(Printf.sprintf "replication_p%d" scenario.S.Scenario.job.Po.Job.processors)
    ~scenario ~policy:(Po.Policy.periodic "rep" ~period) ~replicates ()
  |> Option.fold ~none:nan ~some:fst

let run ?(config = Config.default ()) ?processors ~preset ~dist_kind () =
  let p_full =
    match processors with
    | Some p -> p
    | None -> preset.P.Presets.machine.P.Machine.total_processors
  in
  let p_half = max 1 (p_full / 2) in
  let dist = Setup.distribution dist_kind ~mtbf:preset.P.Presets.processor_mtbf in
  let replicates = Config.scale config ~quick:8 ~full:200 in
  let scenario_full =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors:p_full ()
  in
  let scenario_half =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors:p_half ()
  in
  let store = Sweep_store.of_config config in
  let full_platform_makespan =
    average_periodic_makespan ?store ~scenario:scenario_full ~replicates ()
  in
  let half_platform_makespan =
    average_periodic_makespan ?store ~scenario:scenario_half ~replicates ()
  in
  let job_half = scenario_half.S.Scenario.job in
  let period = Po.Optexp.period job_half in
  (* Replicate [r] pairs the half-platform trace sets [2r] and [2r + 1]. *)
  let rows =
    Sweep_store.vectors ?store
      ~experiment:(Printf.sprintf "replicated_p%d" p_half)
      ~params:[ ("model", "replicated-halves"); ("period", Printf.sprintf "%h" period) ]
      ~scenario:scenario_half ~replicates ~width:1
      ~f:(fun ~first ~len ->
        Array.init len (fun i ->
            let traces k = S.Scenario.traces scenario_half ~replicate:((2 * (first + i)) + k) in
            [|
              simulate_replicated ~job:job_half ~period ~traces_a:(traces 0) ~traces_b:(traces 1)
                ~start_time:scenario_half.S.Scenario.start_time;
            |]))
      ()
  in
  {
    full_platform_makespan;
    half_platform_makespan;
    replicated_makespan =
      Array.fold_left (fun acc row -> acc +. row.(0)) 0. rows /. float_of_int replicates;
  }

let print ?(config = Config.default ()) () =
  Report.print_header "Section 8 extension: replication on platform halves (Petascale)";
  let rows =
    List.map
      (fun dist_kind ->
        let r = run ~config ~preset:(P.Presets.petascale ()) ~dist_kind () in
        let name = Setup.dist_kind_name dist_kind in
        Printf.printf
          "%-18s full-p: %8.2f d   half-p: %8.2f d   replicated half-p: %8.2f d\n%!" name
          (r.full_platform_makespan /. P.Units.day)
          (r.half_platform_makespan /. P.Units.day)
          (r.replicated_makespan /. P.Units.day);
        name
        :: List.map Report.float_cell
             [ r.full_platform_makespan; r.half_platform_makespan; r.replicated_makespan ])
      [ Setup.Exponential; Setup.Weibull 0.7 ]
  in
  Report.write_csv
    ~path:(Filename.concat (Report.results_dir ()) "replication.csv")
    (Report.csv_of_rows
       ~header:
         [ "distribution"; "full_platform_makespan_s"; "half_platform_makespan_s";
           "replicated_makespan_s" ]
       rows)
