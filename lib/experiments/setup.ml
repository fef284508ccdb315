module D = Ckpt_distributions
module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator
module F = Ckpt_failures
module Span = Ckpt_telemetry.Span

type dist_kind = Exponential | Weibull of float | Log_based of F.Failure_log.t

let dist_kind_name = function
  | Exponential -> "exponential"
  | Weibull k -> Printf.sprintf "weibull(k=%g)" k
  | Log_based log -> Printf.sprintf "log-based(%d intervals)" (F.Failure_log.count log)

let distribution kind ~mtbf =
  match kind with
  | Exponential -> D.Exponential.of_mtbf ~mtbf
  | Weibull shape -> D.Weibull.of_mtbf ~mtbf ~shape
  | Log_based log -> F.Failure_log.to_distribution log

let scenario ~config ~dist ~preset ~workload_model ~processors ?(group_size = 1) () =
  Span.time ~layer:"experiments.setup" "Setup.scenario" (fun () ->
      let workload =
        P.Workload.create ~total_work:preset.P.Presets.total_work ~model:workload_model
      in
      let job =
        Po.Job.of_workload ~dist ~processors ~machine:preset.P.Presets.machine ~workload
      in
      let job = if group_size = 1 then job else Po.Job.with_group_size job group_size in
      S.Scenario.create ~seed:config.Config.seed job)

(* One [policies.setup] span per constructor, named after the member
   ("base" for the closed forms). *)
let policies ?(dp_makespan = false) ?(dp_next_failure = true) ?(liu = true) ?(bouguerra = true)
    ?(period_lb = true) scenario =
  let job = scenario.S.Scenario.job in
  let setup name f = Span.time ~layer:"policies.setup" name f in
  let base =
    setup "base" (fun () ->
        [ Po.Young.policy job; Po.Daly.low job; Po.Daly.high job; Po.Optexp.policy job ])
  in
  let opt flag name p = if flag then [ setup name p ] else [] in
  base
  @ opt bouguerra "Bouguerra" (fun () -> Po.Bouguerra.policy job)
  @ opt liu "Liu" (fun () -> Po.Liu.policy job)
  @ opt period_lb "PeriodLB" (fun () -> S.Period_search.policy scenario)
  @ opt dp_next_failure "DPNextFailure" (fun () -> Po.Dp_policies.dp_next_failure job)
  @ opt dp_makespan "DPMakespan" (fun () -> Po.Dp_policies.dp_makespan job)
