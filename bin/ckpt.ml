(* Command-line front end for the checkpointing library.

   Subcommands:
     period       optimal/heuristic checkpoint periods for a platform
     simulate     evaluate the full policy roster on simulated traces
     schedule     a policy's failure-free checkpoint timetable
     mtbf         platform MTBF under both rejuvenation options
     waste        first-order waste analysis (Young's back-of-envelope)
     explain      replay one execution: annotated decision timeline, reconciliation
                  footer and (-o) its event export
     trace-stats  generate traces and report their empirical statistics
     gen-log      write a synthetic LANL-style availability log
     fit-log      MLE-fit lifetime models to an availability log
     experiment   regenerate paper tables/figures by id
     sweep        run experiments against a resumable checkpoint store *)

open Cmdliner
module D = Ckpt_distributions
module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator
module F = Ckpt_failures
module C = Ckpt_core
module E = Ckpt_experiments
module T = Ckpt_telemetry

(* -- shared argument bundles ------------------------------------------- *)

let mtbf_arg =
  let doc = "Per-processor MTBF in hours." in
  Arg.(value & opt float (125. *. 365.25 *. 24.) & info [ "mtbf" ] ~docv:"HOURS" ~doc)

let shape_arg =
  let doc = "Weibull shape parameter; omit for Exponential failures." in
  Arg.(value & opt (some float) None & info [ "shape"; "k" ] ~docv:"K" ~doc)

let processors_arg =
  let doc = "Number of processors enrolled by the job." in
  Arg.(value & opt int P.Presets.jaguar_processors & info [ "p"; "processors" ] ~docv:"P" ~doc)

let checkpoint_arg =
  let doc = "Checkpoint (and recovery) cost in seconds." in
  Arg.(value & opt float 600. & info [ "checkpoint"; "C" ] ~docv:"SECONDS" ~doc)

let downtime_arg =
  let doc = "Downtime after a failure, seconds." in
  Arg.(value & opt float 60. & info [ "downtime"; "D" ] ~docv:"SECONDS" ~doc)

let work_days_arg =
  let doc = "Failure-free execution time of the job on the chosen processors, in days." in
  Arg.(value & opt float 8. & info [ "work-days" ] ~docv:"DAYS" ~doc)

let traces_arg =
  let doc = "Number of simulated trace sets." in
  Arg.(value & opt int 10 & info [ "traces" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 0x5EED & info [ "seed" ] ~docv:"SEED" ~doc)

let distribution ~mtbf_hours ~shape =
  let mtbf = mtbf_hours *. 3600. in
  match shape with
  | None -> D.Exponential.of_mtbf ~mtbf
  | Some k -> D.Weibull.of_mtbf ~mtbf ~shape:k

let job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days =
  let dist = distribution ~mtbf_hours ~shape in
  let machine =
    P.Machine.create ~total_processors:processors ~downtime
      ~overhead:(P.Overhead.constant checkpoint)
  in
  Po.Job.create ~dist ~processors ~machine ~work_time:(work_days *. P.Units.day)

(* Shared by schedule/explain: a policy by its roster name.  The
   period-search policy needs the scenario (it tunes on traces). *)
let policy_of_name ?scenario job name =
  match String.lowercase_ascii name with
  | "young" -> Po.Young.policy job
  | "dalylow" -> Po.Daly.low job
  | "dalyhigh" -> Po.Daly.high job
  | "optexp" -> Po.Optexp.policy job
  | "bouguerra" -> Po.Bouguerra.policy job
  | "liu" -> Po.Liu.policy job
  | "dpnf" | "dpnextfailure" -> Po.Dp_policies.dp_next_failure job
  | "dpmakespan" -> Po.Dp_policies.dp_makespan job
  | "periodvariation" | "search" -> begin
      match scenario with
      | Some scenario -> S.Period_search.policy scenario
      | None -> failwith "the period-search policy needs simulated traces"
    end
  | other -> failwith (Printf.sprintf "unknown policy %S" other)

(* -- period ------------------------------------------------------------ *)

let period_cmd =
  let run mtbf_hours shape processors checkpoint downtime work_days =
    let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
    Printf.printf "platform MTBF: %.0f s\n" (Po.Job.platform_mtbf job);
    Printf.printf "%-12s %12s\n" "policy" "period (s)";
    List.iter
      (fun (name, period) -> Printf.printf "%-12s %12.0f\n" name period)
      [
        ("Young", Po.Young.period job);
        ("DalyLow", Po.Daly.low_order_period job);
        ("DalyHigh", Po.Daly.high_order_period job);
        ("OptExp", Po.Optexp.period job);
        ("Bouguerra", Po.Bouguerra.period job);
      ];
    let k =
      C.Theory.parallel_optimal_chunk_count
        ~rate:(1. /. Po.Job.unit_mtbf job)
        ~processors ~parallel_work:job.Po.Job.work_time ~checkpoint
    in
    Printf.printf "OptExp chunk count K* = %d\n" k
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg)
  in
  Cmd.v (Cmd.info "period" ~doc:"Print each heuristic's checkpoint period.") term

(* -- simulate ------------------------------------------------------------ *)

let simulate_cmd =
  let run mtbf_hours shape processors checkpoint downtime work_days traces seed =
    T.Span.scope ~label:"simulate" (fun () ->
        let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
        let scenario = S.Scenario.create ~seed:(Int64.of_int seed) job in
        (* DPMakespan only for Exponential failures. *)
        let policies = E.Setup.policies ~dp_makespan:(shape = None) scenario in
        let table = S.Evaluation.degradation_table ~scenario ~policies ~replicates:traces in
        Format.printf "%a@." S.Evaluation.pp_table table)
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg $ traces_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Evaluate the policy roster on simulated failure traces.")
    term

(* -- mtbf ---------------------------------------------------------------- *)

let mtbf_cmd =
  let run mtbf_hours shape processors downtime =
    let dist = distribution ~mtbf_hours ~shape in
    List.iter
      (fun (name, policy) ->
        let v = F.Rejuvenation.platform_mtbf policy dist ~processors ~downtime in
        Printf.printf "%-22s %14.1f s  (%.4g h)\n" name v (v /. 3600.))
      [
        ("rejuvenate-all", F.Rejuvenation.Rejuvenate_all);
        ("rejuvenate-failed-only", F.Rejuvenation.Rejuvenate_failed_only);
      ]
  in
  let term = Term.(const run $ mtbf_arg $ shape_arg $ processors_arg $ downtime_arg) in
  Cmd.v
    (Cmd.info "mtbf" ~doc:"Platform MTBF under both rejuvenation options (Figure 1).")
    term

(* -- gen-log -------------------------------------------------------------- *)

let gen_log_cmd =
  let out_arg =
    Arg.(value & opt string "lanl_synth.log" & info [ "o"; "output" ] ~docv:"PATH")
  in
  let cluster_arg =
    Arg.(value & opt int 19 & info [ "cluster" ] ~docv:"18|19")
  in
  let run out cluster seed =
    let params =
      match cluster with
      | 18 -> F.Lanl_synth.cluster18_parameters
      | 19 -> F.Lanl_synth.cluster19_parameters
      | _ -> failwith "cluster must be 18 or 19"
    in
    let log = F.Lanl_synth.generate ~seed:(Int64.of_int seed) params in
    F.Failure_log.save log
      ~node_of_interval:(fun i -> i / params.F.Lanl_synth.intervals_per_node)
      out;
    Printf.printf "wrote %d intervals over %d nodes to %s (mean interval %.3e s)\n"
      (F.Failure_log.count log) log.F.Failure_log.nodes out (F.Failure_log.mean_interval log)
  in
  let term = Term.(const run $ out_arg $ cluster_arg $ seed_arg) in
  Cmd.v (Cmd.info "gen-log" ~doc:"Write a synthetic LANL-style availability log.") term

(* -- schedule ------------------------------------------------------------------ *)

let schedule_cmd =
  let policy_arg =
    let doc = "Policy: young | dalylow | dalyhigh | optexp | bouguerra | liu | dpnf." in
    Arg.(value & opt string "dpnf" & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"CSV")
  in
  let run mtbf_hours shape processors checkpoint downtime work_days policy_name out =
    let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
    let policy = policy_of_name job policy_name in
    let entries = Po.Schedule.failure_free policy job in
    (match Po.Schedule.interval_range entries with
    | None -> print_endline "the policy declines to produce a timetable"
    | Some (lo, hi) ->
        Printf.printf "%d checkpoints; intervals %.0f .. %.0f s\n" (List.length entries) lo hi;
        List.iteri
          (fun i e ->
            if i < 10 then
              Printf.printf "  #%-3d work %8.0f s, checkpoint at t = %10.0f s\n" (i + 1)
                e.Po.Schedule.chunk e.Po.Schedule.checkpoint_at)
          entries;
        if List.length entries > 10 then
          Printf.printf "  ... (%d more)\n" (List.length entries - 10));
    match out with
    | None -> ()
    | Some path ->
        Ckpt_store.Atomic_file.write ~path (Po.Schedule.to_csv entries);
        Printf.printf "wrote %s\n" path
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg $ policy_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Print a policy's failure-free checkpoint timetable.")
    term

(* -- waste ------------------------------------------------------------------- *)

let waste_cmd =
  let run mtbf_hours processors checkpoint =
    let mu = mtbf_hours *. 3600. in
    let m = mu /. float_of_int processors in
    let period = C.Waste.optimal_period ~checkpoint ~platform_mtbf:m in
    Printf.printf "platform MTBF:        %14.0f s\n" m;
    Printf.printf "first-order period:   %14.0f s   (Young)\n" period;
    Printf.printf "minimal waste:        %14.1f %%\n"
      (100. *. C.Waste.minimal_waste ~checkpoint ~platform_mtbf:m);
    Printf.printf "usable-processor cap: %14d    (waste reaches 100%%)\n"
      (C.Waste.usable_processor_limit ~checkpoint ~processor_mtbf:mu)
  in
  let term = Term.(const run $ mtbf_arg $ processors_arg $ checkpoint_arg) in
  Cmd.v
    (Cmd.info "waste" ~doc:"First-order waste analysis of periodic checkpointing.")
    term

(* -- trace-stats --------------------------------------------------------------- *)

let trace_stats_cmd =
  let horizon_arg =
    Arg.(value & opt float 11. & info [ "horizon-years" ] ~docv:"YEARS")
  in
  let run mtbf_hours shape processors seed horizon_years =
    let dist = distribution ~mtbf_hours ~shape in
    let traces =
      F.Trace_set.generate ~seed:(Int64.of_int seed) ~replicate:0 dist ~processors
        ~horizon:(horizon_years *. P.Units.year)
    in
    Format.printf "%a@." F.Trace_stats.pp (F.Trace_stats.measure traces);
    let fit = D.Fit.best_fit (F.Trace_stats.interarrivals traces) in
    Format.printf "best distribution fit: %s (KS %.4f)@."
      fit.D.Fit.distribution.D.Distribution.name fit.D.Fit.ks_statistic
  in
  let term =
    Term.(const run $ mtbf_arg $ shape_arg $ processors_arg $ seed_arg $ horizon_arg)
  in
  Cmd.v
    (Cmd.info "trace-stats"
       ~doc:"Generate failure traces and report their empirical statistics and best fit.")
    term

(* -- fit-log ----------------------------------------------------------------- *)

let fit_log_cmd =
  let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG") in
  let run path =
    let log = F.Failure_log.load path in
    Printf.printf "%s: %d availability intervals over %d nodes, mean %.4g s\n\n" path
      (F.Failure_log.count log) log.F.Failure_log.nodes (F.Failure_log.mean_interval log);
    let data = log.F.Failure_log.intervals in
    Printf.printf "%-14s %14s %12s %10s\n" "model" "log-likelihood" "AIC" "KS";
    List.iter
      (fun (name, fit) ->
        Printf.printf "%-14s %14.1f %12.1f %10.4f   %s\n" name fit.D.Fit.log_likelihood
          fit.D.Fit.aic fit.D.Fit.ks_statistic
          fit.D.Fit.distribution.D.Distribution.name)
      [
        ("exponential", D.Fit.exponential data);
        ("weibull", D.Fit.weibull data);
        ("lognormal", D.Fit.lognormal data);
      ];
    let best = D.Fit.best_fit data in
    Printf.printf "\nbest fit by AIC: %s\n" best.D.Fit.distribution.D.Distribution.name
  in
  let term = Term.(const run $ path_arg) in
  Cmd.v
    (Cmd.info "fit-log"
       ~doc:"Fit Exponential/Weibull/LogNormal models to an availability log by MLE.")
    term

(* -- explain ------------------------------------------------------------------ *)

let explain_cmd =
  let policy_arg =
    let doc =
      "Policy: young | dalylow | dalyhigh | optexp | bouguerra | liu | dpnf | dpmakespan | \
       search."
    in
    Arg.(value & opt string "dpnf" & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let replicate_arg =
    Arg.(value & opt int 0 & info [ "replicate" ] ~docv:"N" ~doc:"Trace-set replicate index.")
  in
  let limit_arg =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N" ~doc:"Decisions to annotate (negative for all).")
  in
  let out_arg =
    let doc =
      "Also write the replay's event export (*.jsonl, or Chrome trace_event JSON otherwise) \
       with a provenance sidecar."
    in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc)
  in
  let run mtbf_hours shape processors checkpoint downtime work_days seed policy_name replicate
      limit out =
    let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
    let scenario = S.Scenario.create ~seed:(Int64.of_int seed) job in
    let policy = policy_of_name ~scenario job policy_name in
    let explained = S.Explain.run ~scenario ~policy ~replicate in
    print_endline (Format.asprintf "%a" (S.Explain.print ~limit) explained);
    (match out with
    | None -> ()
    | Some path ->
        T.Tracer.write ~path explained.S.Explain.buffer;
        T.Provenance.write_sidecar
          ~extra:
            [
              ("policy", policy.Po.Policy.name);
              ("replicate", string_of_int replicate);
              ("seed", string_of_int seed);
            ]
          ~path ();
        Printf.printf "wrote %s (and %s)\n" path (T.Provenance.sidecar_path path));
    match explained.S.Explain.outcome with
    | S.Engine.Completed _ when not (S.Explain.reconciles explained) ->
        prerr_endline "ckpt explain: trace totals do not reconcile with engine metrics";
        exit 1
    | _ -> ()
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg $ seed_arg $ policy_arg $ replicate_arg $ limit_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay one execution and annotate every policy decision with its expected-value \
          rationale (platform hazard, expected time to next failure, commit probability) and \
          realized outcome, plus a waste-decomposition footer reconciled bitwise against the \
          event stream; $(b,-o) exports that stream.")
    term

(* -- experiment ------------------------------------------------------------ *)

(* Shared by experiment and sweep: the configuration at CKPT_SEED
   with the command line's --full and --traces applied, and the run of
   the given ids in order (no id, or "all", runs the whole registry). *)
let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale parameters.")

let traces_arg =
  let doc = "Replicates per configuration (0: each study's default)." in
  Arg.(value & opt int 0 & info [ "traces" ] ~docv:"N" ~doc)

let experiment_config ~full ~traces =
  { (E.Config.default ()) with E.Config.full; replicates = max 0 traces }

let run_ids config ids =
  match ids with
  | [] | [ "all" ] -> E.Registry.run_all config
  | ids ->
      List.iter
        (fun id ->
          match E.Registry.find id with
          | Some e -> e.E.Registry.run config
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s\n" id
                (String.concat ", " (E.Registry.ids ()));
              exit 2)
        ids

let experiment_cmd =
  let ids_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids, or 'all'.")
  in
  let run ids full traces = run_ids (experiment_config ~full ~traces) ids in
  let term = Term.(const run $ ids_arg $ full_arg $ traces_arg) in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate paper tables/figures by id (or 'all').") term

(* -- sweep ----------------------------------------------------------------- *)

let sweep_cmd =
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let resume_arg =
    let doc =
      "Checkpoint-store directory (required; the only way to attach a store): completed \
       (experiment, scenario, replicate-stripe) units are persisted here and skipped on \
       re-run, so an interrupted sweep resumes where it left off with bit-identical output."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR" ~doc)
  in
  let workers_arg =
    let doc =
      "Worker processes claiming units from the shared store (claim markers arbitrate, no \
       coordinator); the parent then merges in canonical order, so output is byte-identical \
       to $(b,--workers 1)."
    in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let print_stats ~label (s : E.Sweep_store.stats) =
    Printf.printf
      "%s: %d units skipped, %d computed, %d invalidated, %d claimed, %d busy, %d reaped\n%!"
      label s.E.Sweep_store.skipped s.E.Sweep_store.computed s.E.Sweep_store.invalidated
      s.E.Sweep_store.claimed s.E.Sweep_store.busy s.E.Sweep_store.reaped
  in
  let run ids resume full traces workers =
    let config = experiment_config ~full ~traces in
    let dir =
      match resume with
      | Some d -> d
      | None ->
          prerr_endline "ckpt sweep: pass --resume DIR";
          exit 2
    in
    let config = { config with E.Config.sweep_dir = Some dir } in
    let store = E.Sweep_store.create ~dir in
    E.Sweep_store.reset_stats ();
    match E.Sweep_workers.worker_index () with
    | Some index ->
        (* Child process spawned by the parent below: compute claimed
           units, write the stats file, and exit — the parent renders
           all output. *)
        E.Sweep_workers.run_as_worker ~store ~index (fun () -> run_ids config ids)
    | None ->
        if workers < 1 then begin
          prerr_endline "ckpt sweep: --workers must be >= 1";
          exit 2
        end;
        if workers > 1 then begin
          (* Respawn this exact invocation as marked worker children;
             explicit --traces/--full pin the resolved values so the
             children cannot drift from the parent's config. *)
          let args =
            Array.of_list
              (Sys.argv.(0) :: "sweep" :: "--resume" :: dir :: "--traces"
               :: string_of_int config.E.Config.replicates
               :: ((if config.E.Config.full then [ "--full" ] else []) @ ids))
          in
          Printf.printf "sweep: launching %d workers over %s\n%!" workers dir;
          let summary =
            E.Sweep_workers.launch ~store ~workers ~exe:Sys.executable_name ~args
              ~progress:(fun ~alive ~units ->
                Printf.printf "sweep: %d units in store, %d workers running\n%!" units
                  alive)
              ()
          in
          List.iter
            (fun r ->
              let status =
                match r.E.Sweep_workers.r_outcome with
                | E.Sweep_workers.Finished -> "finished"
                | E.Sweep_workers.Failed n -> Printf.sprintf "FAILED (exit %d)" n
                | E.Sweep_workers.Signaled s -> Printf.sprintf "KILLED (signal %d)" s
              in
              let counts =
                match r.E.Sweep_workers.r_stats with
                | Some s ->
                    Printf.sprintf "%d computed, %d skipped, %d busy, %d reaped"
                      s.E.Sweep_store.computed s.E.Sweep_store.skipped
                      s.E.Sweep_store.busy s.E.Sweep_store.reaped
                | None -> "no stats file"
              in
              Printf.printf "sweep: worker %d (pid %d) %s in %.1fs: %s\n%!"
                r.E.Sweep_workers.r_index r.E.Sweep_workers.r_pid status
                r.E.Sweep_workers.r_seconds counts)
            summary.E.Sweep_workers.workers;
          if summary.E.Sweep_workers.crashed > 0 then
            Printf.printf
              "sweep: %d worker(s) crashed; %d leftover claim(s) reaped — the merge pass \
               below recomputes whatever they left unfinished\n%!"
              summary.E.Sweep_workers.crashed summary.E.Sweep_workers.claims_reaped;
          E.Sweep_store.reset_stats ()
        end;
        (* The canonical pass: with workers it loads what they computed
           and fills any holes; alone it is the whole sweep. *)
        run_ids config ids;
        print_stats ~label:(Printf.sprintf "sweep store %s" dir) (E.Sweep_store.stats ())
  in
  let term = Term.(const run $ ids_arg $ resume_arg $ full_arg $ traces_arg $ workers_arg) in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run experiments against a resumable checkpoint store: interrupt freely, re-run \
          with the same $(b,--resume) directory, and only incomplete units are recomputed.")
    term

let () =
  (* The one arming site of the exit-time OpenMetrics textfile; a
     no-op unless CKPT_METRICS_OUT is set. *)
  T.Metrics_export.ensure_at_exit ();
  let doc = "Checkpointing strategies for parallel jobs (Bougeret et al., SC'11 reproduction)" in
  let info = Cmd.info "ckpt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            period_cmd; simulate_cmd; schedule_cmd; mtbf_cmd; waste_cmd; explain_cmd;
            trace_stats_cmd; gen_log_cmd; fit_log_cmd; experiment_cmd; sweep_cmd;
          ]))
