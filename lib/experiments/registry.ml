module P = Ckpt_platform

type entry = {
  id : string;
  description : string;
  run : Config.t -> unit;
}

(* Under CKPT_VERBOSE=1 each experiment reports the spans recorded
   since it started, so back-to-back studies never count each other's. *)
let scoped e =
  { e with run = (fun config -> Ckpt_telemetry.Span.scope ~label:e.id (fun () -> e.run config)) }

let all () =
  List.map scoped
  [
    {
      id = "fig1";
      description = "platform MTBF vs processors under both rejuvenation options";
      run = (fun config -> Fig1_mtbf.print ~config ());
    };
    {
      id = "table2";
      description = "single processor, Exponential failures";
      run = (fun config -> Sequential_tables.print ~config ~dist_kind:Setup.Exponential ());
    };
    {
      id = "table3";
      description = "single processor, Weibull k=0.7 failures";
      run = (fun config -> Sequential_tables.print ~config ~dist_kind:(Setup.Weibull 0.7) ());
    };
    {
      id = "fig2";
      description = "Petascale, Exponential: degradation vs processors";
      run =
        (fun config -> Scaling_study.print (Scaling_study.figure2 ~config ()) ~csv:"fig2.csv");
    };
    {
      id = "fig3";
      description = "Exascale, Exponential: degradation vs processors";
      run =
        (fun config -> Scaling_study.print (Scaling_study.figure3 ~config ()) ~csv:"fig3.csv");
    };
    {
      id = "fig4";
      description = "Petascale, Weibull k=0.7: degradation vs processors";
      run =
        (fun config -> Scaling_study.print (Scaling_study.figure4 ~config ()) ~csv:"fig4.csv");
    };
    {
      id = "fig5";
      description = "degradation vs Weibull shape k at 45,208 processors";
      run = (fun config -> Shape_study.print ~config ());
    };
    {
      id = "fig6";
      description = "Exascale, Weibull k=0.7: degradation vs processors";
      run =
        (fun config -> Scaling_study.print (Scaling_study.figure6 ~config ()) ~csv:"fig6.csv");
    };
    {
      id = "fig7";
      description = "Petascale, log-based failures (LANL cluster 19 stand-in)";
      run = (fun config -> Logbased_study.print ~config ~cluster:Logbased_study.Cluster19 ());
    };
    {
      id = "table4";
      description = "45,208 processors, Weibull: degradation table + spare statistics";
      run = (fun config -> Table4.print ~config ());
    };
    {
      id = "fig8";
      description = "Appendix A: 1-proc Exponential period-multiplier sweeps";
      run =
        (fun config ->
          List.iter
            (fun mtbf ->
              Period_sweep.print
                (Period_sweep.sequential ~config ~dist_kind:Setup.Exponential ~mtbf ())
                ~csv:(Printf.sprintf "fig8_mtbf%gh.csv" (mtbf /. P.Units.hour)))
            [ P.Units.hour; P.Units.day; P.Units.week ]);
    };
    {
      id = "fig9";
      description = "Appendix A: 1-proc Weibull period-multiplier sweeps";
      run =
        (fun config ->
          List.iter
            (fun mtbf ->
              Period_sweep.print
                (Period_sweep.sequential ~config ~dist_kind:(Setup.Weibull 0.7) ~mtbf ())
                ~csv:(Printf.sprintf "fig9_mtbf%gh.csv" (mtbf /. P.Units.hour)))
            [ P.Units.hour; P.Units.day; P.Units.week ]);
    };
    {
      id = "grid-peta";
      description = "Appendix B: Petascale grid (workload x overhead x MTBF x failures)";
      run =
        (fun config ->
          Grid_study.print ~config
            ~cells:(Grid_study.petascale_cells ~full:config.Config.full) ());
    };
    {
      id = "grid-exa";
      description = "Appendix C: Exascale grid";
      run =
        (fun config ->
          Grid_study.print ~config ~cells:(Grid_study.exascale_cells ~full:config.Config.full) ());
    };
    {
      id = "fig98";
      description = "Appendix D: makespan vs p per application profile (OptExp, Exponential)";
      run =
        (fun config ->
          Makespan_vs_p.print (Makespan_vs_p.figure98 ~config ~proportional:false ()) ~csv:"fig98a.csv";
          Makespan_vs_p.print (Makespan_vs_p.figure98 ~config ~proportional:true ()) ~csv:"fig98b.csv");
    };
    {
      id = "fig99";
      description = "Appendix D: makespan vs p per application profile (DPNextFailure, Weibull)";
      run =
        (fun config -> Makespan_vs_p.print (Makespan_vs_p.figure99 ~config ()) ~csv:"fig99.csv");
    };
    {
      id = "fig100";
      description = "Appendix E: log-based failures, cluster 18 stand-in";
      run = (fun config -> Logbased_study.print ~config ~cluster:Logbased_study.Cluster18 ());
    };
    {
      id = "ablation";
      description = "extension: DPNextFailure approximation-knob ablations";
      run = (fun config -> Ablation.print ~config ());
    };
    {
      id = "energy";
      description = "extension: energy/makespan trade-off of the checkpoint period";
      run = (fun config -> Energy_study.print ~config ());
    };
    {
      id = "replication";
      description = "extension: job replication on platform halves (Section 8)";
      run = (fun config -> Replication.print ~config ());
    };
    {
      id = "significance";
      description = "paired sign test: DPNextFailure vs OptExp/Young on Weibull failures";
      run = (fun config -> Significance_study.print ~config ());
    };
    {
      id = "spares";
      description = "Section 5.2.2: spare-processor sizing from per-run failure counts";
      run = (fun config -> Spares.print ~config ());
    };
    {
      id = "variable-cost";
      description = "extension: progress-dependent checkpoint/recovery costs (conclusion)";
      run = (fun config -> Variable_cost.print ~config ());
    };
    {
      id = "sweep-smoke";
      description = "tiny scaling sweep for exercising the resumable sweep store";
      run =
        (fun config ->
          (* Deliberately small (64-processor platform, short traces):
             seconds per unit, so the kill-and-resume smoke test in
             test/run_matrix.sh can interrupt it mid-sweep and still
             finish the resumed run quickly. *)
          let preset =
            {
              P.Presets.label = "mini";
              machine =
                P.Machine.create ~total_processors:64 ~downtime:50.
                  ~overhead:(P.Overhead.constant 100.);
              total_work = 4e6;
              processor_mtbf = 2e5;
              job_processor_counts = [ 16; 64 ];
            }
          in
          Scaling_study.print
            (Scaling_study.run ~config ~experiment:"sweep_smoke" ~preset
               ~dist_kind:(Setup.Weibull 0.7) ())
            ~csv:"sweep_smoke.csv");
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) (all ())

let ids () = List.map (fun e -> e.id) (all ())

let run_all config = List.iter (fun e -> e.run config) (all ())
