(* Tests for the experiment harness: configuration, reporting,
   registry, and miniature end-to-end runs of the study machinery. *)

module Config = Ckpt_experiments.Config
module Report = Ckpt_experiments.Report
module Setup = Ckpt_experiments.Setup
module Registry = Ckpt_experiments.Registry
module Fig1_mtbf = Ckpt_experiments.Fig1_mtbf
module Scaling_study = Ckpt_experiments.Scaling_study
module Ablation = Ckpt_experiments.Ablation
module Replication = Ckpt_experiments.Replication
module P = Ckpt_platform
module S = Ckpt_simulator
module F = Ckpt_failures

let check = Alcotest.check
let close ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let with_env pairs f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (k, v) -> Unix.putenv k (Option.value v ~default:"")) saved)
    f

let contains_sub ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* -- config ------------------------------------------------------------------- *)

let test_config_env () =
  (* The environment sets only the seed; the scale is --traces and
     --full on the command line. *)
  with_env [ ("CKPT_SEED", "99") ] (fun () ->
      let c = Config.default () in
      check Alcotest.int "study default traces" 0 c.Config.replicates;
      check Alcotest.bool "not full" false c.Config.full;
      check Alcotest.int64 "seed" 99L c.Config.seed)

(* [f ()] with stderr redirected to a temporary file: its result and
   everything it printed there. *)
let capture_stderr f =
  let path = Filename.temp_file "ckpt_stderr" ".txt" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let result =
    Fun.protect f ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
  in
  let printed = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (result, printed)

let test_config_malformed () =
  (* Malformed values warn on stderr and fall back to the defaults
     instead of being silently eaten. *)
  let default_with pairs = with_env pairs (fun () -> capture_stderr Config.default) in
  let c, printed = default_with [ ("CKPT_SEED", "12x") ] in
  check Alcotest.int64 "CKPT_SEED=\"12x\": default seed" 0x5EEDL c.Config.seed;
  check Alcotest.bool
    (Printf.sprintf "CKPT_SEED=\"12x\" warns: %S" printed)
    true
    (contains_sub ~needle:"ckpt: ignoring malformed CKPT_SEED=\"12x\"" printed);
  (* A valid seed is taken. *)
  let c, printed = default_with [ ("CKPT_SEED", "-7") ] in
  check Alcotest.int64 "negative seeds are valid" (-7L) c.Config.seed;
  check Alcotest.string "well-formed values print nothing" "" printed;
  (* CKPT_DOMAINS reads through the same warn-once reader
     (CKPT_SWEEP_STRIPE's warning has its own test). *)
  let (), printed =
    with_env [ ("CKPT_DOMAINS", "none") ] (fun () ->
        capture_stderr (fun () -> ignore (Ckpt_telemetry.Provenance.domain_count ())))
  in
  check Alcotest.bool
    (Printf.sprintf "CKPT_DOMAINS=\"none\" warns: %S" printed)
    true
    (contains_sub ~needle:"ckpt: ignoring malformed CKPT_DOMAINS=\"none\"" printed)

(* -- knob table ------------------------------------------------------------------ *)

(* Every [CKPT_<NAME>] token in [text].  A token ending in '_' is a
   prefix pattern ("CKPT_*" in prose, a [starts_with] filter), not a
   knob. *)
let knob_names text =
  let is_name_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' in
  let n = String.length text in
  let rec scan i acc =
    if i + 5 > n then acc
    else if String.sub text i 5 = "CKPT_" && (i = 0 || not (is_name_char text.[i - 1])) then begin
      let j = ref (i + 5) in
      while !j < n && is_name_char text.[!j] do
        incr j
      done;
      let name = String.sub text i (!j - i) in
      scan !j (if String.ends_with ~suffix:"_" name then acc else name :: acc)
    end
    else scan (i + 1) acc
  in
  List.sort_uniq compare (scan 0 [])

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec source_files dir =
  List.concat_map
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then source_files path
      else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli" then
        [ path ]
      else [])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let test_readme_knob_table () =
  (* The tests run in _build/default/test; the dune stanza copies the
     sources and README next to them. *)
  let code =
    knob_names
      (String.concat "\n"
         (List.map read_file (source_files "../lib" @ source_files "../bin" @ [ "../bench/main.ml" ])))
  in
  (* One row per knob, named in the row's first cell, which ends at the
     first " | " (a pipe escaped as \| inside a cell does not). *)
  let first_cell row =
    let len = String.length row in
    let rec stop i = if i + 3 > len || String.sub row i 3 = " | " then i else stop (i + 1) in
    String.sub row 0 (stop 2)
  in
  let table =
    String.split_on_char '\n' (read_file "../README.md")
    |> List.filter (String.starts_with ~prefix:"| `CKPT_")
    |> List.concat_map (fun row -> knob_names (first_cell row))
    |> List.sort_uniq compare
  in
  check Alcotest.bool "found the code's knobs" true
    (List.for_all (fun k -> List.mem k code) [ "CKPT_SEED"; "CKPT_DOMAINS"; "CKPT_VERBOSE" ]);
  let missing from names = List.filter (fun k -> not (List.mem k from)) names in
  check (Alcotest.list Alcotest.string) "named in the code but not in README's knob table" []
    (missing table code);
  check (Alcotest.list Alcotest.string) "in README's knob table but named nowhere in the code" []
    (missing code table)

let test_config_scale () =
  let explicit = { Config.replicates = 12; full = false; seed = 0L; sweep_dir = None } in
  check Alcotest.int "explicit wins" 12 (Config.scale explicit ~quick:4 ~full:600);
  let quick = { Config.replicates = 0; full = false; seed = 0L; sweep_dir = None } in
  check Alcotest.int "quick default" 4 (Config.scale quick ~quick:4 ~full:600);
  let full = { Config.replicates = 0; full = true; seed = 0L; sweep_dir = None } in
  check Alcotest.int "full default" 600 (Config.scale full ~quick:4 ~full:600)

(* -- report -------------------------------------------------------------------- *)

let test_csv_of_series () =
  let series =
    [
      { Report.label = "a"; points = [ (1., 10.); (2., 20.) ] };
      { Report.label = "b"; points = [ (1., 1.5); (2., nan) ] };
    ]
  in
  let csv = Report.csv_of_series ~x_label:"x" series in
  check Alcotest.string "csv layout" "x,a,b\n1,10,1.5\n2,20,\n" csv

(* The one-CSV-per-study layout of the vectors studies (energy,
   significance, variable cost, replication): non-finite cells empty. *)
let test_csv_of_rows () =
  let csv =
    Report.csv_of_rows ~header:[ "name"; "v"; "w" ]
      [
        [ "a"; Report.float_cell 1.5; Report.float_cell nan ];
        [ "b"; Report.float_cell infinity; Report.float_cell 4.271234567891 ];
      ]
  in
  check Alcotest.string "rows layout" "name,v,w\na,1.5,\nb,,4.271234568\n" csv

(* A table with a policy that never completes: its CSV row must render
   empty profile cells — never the string "nan" or "inf" — while the
   successful policies carry full profile blocks (satellite: NaN/inf
   CSV guard). *)
let failed_policy_table () =
  let scenario =
    S.Scenario.create ~horizon:1e7 ~start_time:0.
      (Ckpt_policies.Job.create
         ~dist:(Ckpt_distributions.Exponential.of_mtbf ~mtbf:4000.)
         ~processors:1
         ~machine:
           (P.Machine.create ~total_processors:1 ~downtime:50.
              ~overhead:(P.Overhead.constant 100.))
         ~work_time:20_000.)
  in
  S.Evaluation.degradation_table ~scenario
    ~policies:
      [ Ckpt_policies.Policy.periodic "ok" ~period:1000.;
        Ckpt_policies.Policy.stateless "never" (fun _ -> None) ]
    ~replicates:3

let test_csv_no_nan_for_failed_policy () =
  let table = failed_policy_table () in
  let csv = Report.csv_of_table table in
  let lower = String.lowercase_ascii csv in
  check Alcotest.bool "no 'nan' cell" false (contains_sub ~needle:"nan" lower);
  check Alcotest.bool "no 'inf' cell" false (contains_sub ~needle:"inf" lower);
  (match String.split_on_char '\n' csv with
  | header :: _ ->
      List.iter
        (fun col ->
          check Alcotest.bool ("header has " ^ col) true
            (contains_sub ~needle:("," ^ col) header))
        Report.profile_columns
  | [] -> Alcotest.fail "empty csv");
  let row name =
    List.find
      (fun l -> String.length l > String.length name && String.sub l 0 (String.length name) = name)
      (String.split_on_char '\n' csv)
  in
  (* The failed policy's profile block is entirely empty cells. *)
  let never = row "never" in
  let expected_empty = String.concat "" (List.map (fun _ -> ",") Report.profile_columns) in
  check Alcotest.bool "failed row ends in empty profile cells" true
    (String.ends_with ~suffix:expected_empty never);
  (* The successful policy's block carries values that sum back to the
     mean makespan (the accounting identity survives the %.10g round
     trip). *)
  let ok_cells = String.split_on_char ',' (row "ok") in
  (* The profile block is the trailing |profile_columns| cells. *)
  let cell name =
    let rec find i = function
      | [] -> Alcotest.fail ("missing column " ^ name)
      | c :: _ when c = name -> i
      | _ :: rest -> find (i + 1) rest
    in
    let offset = List.length ok_cells - List.length Report.profile_columns in
    float_of_string (List.nth ok_cells (offset + find 0 Report.profile_columns))
  in
  let sum =
    cell "useful_s" +. cell "checkpoint_s" +. cell "wasted_s" +. cell "recovery_s"
    +. cell "stall_s"
  in
  let mk = cell "mk_mean_s" in
  check Alcotest.bool
    (Printf.sprintf "components %.10g sum to mk_mean %.10g" sum mk)
    true
    (abs_float (sum -. mk) <= 1e-8 *. mk);
  check Alcotest.bool "quantiles ordered in csv" true
    (cell "mk_p50_s" <= cell "mk_p95_s" && cell "mk_p95_s" <= cell "mk_p99_s")

let test_csv_of_tables_extends_series_csv () =
  (* The sweep CSV's leading columns must stay byte-identical to the
     pre-profile format: every csv_of_series line is a prefix of the
     corresponding csv_of_tables line. *)
  let table = failed_policy_table () in
  let tables = [ (16., table); (64., table) ] in
  let old_csv = Report.csv_of_series ~x_label:"p" (Report.degradation_series tables) in
  let new_csv = Report.csv_of_tables ~x_label:"p" tables in
  let old_lines = String.split_on_char '\n' old_csv in
  let new_lines = String.split_on_char '\n' new_csv in
  check Alcotest.int "same line count" (List.length old_lines) (List.length new_lines);
  List.iter2
    (fun prefix line ->
      check Alcotest.bool
        (Printf.sprintf "%S extends %S" line prefix)
        true
        (String.starts_with ~prefix line))
    old_lines new_lines;
  let lower = String.lowercase_ascii new_csv in
  check Alcotest.bool "no 'nan' cell in sweep csv" false (contains_sub ~needle:"nan" lower)

let test_write_csv_creates_directories () =
  let dir = Filename.temp_file "ckpt" "" in
  Sys.remove dir;
  let path = Filename.concat (Filename.concat dir "nested") "out.csv" in
  Report.write_csv ~path "x\n";
  check Alcotest.bool "file exists" true (Sys.file_exists path);
  Sys.remove path

(* -- ascii plot ------------------------------------------------------------------ *)

module Ascii_plot = Ckpt_experiments.Ascii_plot

let plot_series =
  [
    { Report.label = "a"; points = [ (1., 1.); (2., 2.); (4., 4.) ] };
    { Report.label = "b"; points = [ (1., 4.); (2., 2.); (4., 1.) ] };
  ]

let test_plot_structure () =
  let out = Ascii_plot.render ~options:{ Ascii_plot.default_options with height = 6 } plot_series in
  let lines = String.split_on_char '\n' out in
  check Alcotest.bool "legend mentions both series" true
    (List.exists (fun l -> String.length l > 0 && String.ends_with ~suffix:"a" l) lines
    && List.exists (fun l -> String.ends_with ~suffix:"b" l) lines);
  check Alcotest.bool "extreme labels present" true
    (List.exists (fun l -> String.length l >= 3 && String.trim l <> "" && l.[10] = ' ') lines);
  (* Corners: series a's max sits top-right, series b's max top-left. *)
  let top = List.hd lines in
  check Alcotest.bool "both glyphs on the top row" true
    (String.contains top '*' && String.contains top 'o')

let test_plot_skips_nan () =
  let s = [ { Report.label = "n"; points = [ (1., nan); (2., 3.) ] } ] in
  let out = Ascii_plot.render s in
  check Alcotest.bool "renders" true (String.length out > 0)

let test_plot_rejects_empty () =
  Alcotest.check_raises "no series" (Invalid_argument "Ascii_plot.render: no series") (fun () ->
      ignore (Ascii_plot.render []));
  Alcotest.check_raises "all nan" (Invalid_argument "Ascii_plot.render: no finite points")
    (fun () -> ignore (Ascii_plot.render [ { Report.label = "x"; points = [ (1., nan) ] } ]))

(* -- setup --------------------------------------------------------------------- *)

let test_setup_distribution () =
  let d = Setup.distribution Setup.Exponential ~mtbf:1000. in
  close ~tol:1e-9 "exponential mean" 1000. d.Ckpt_distributions.Distribution.mean;
  let w = Setup.distribution (Setup.Weibull 0.7) ~mtbf:1000. in
  close ~tol:1e-6 "weibull mean" 1000. w.Ckpt_distributions.Distribution.mean

let test_setup_policy_roster () =
  (* A miniature scenario keeps PeriodLB's search cheap. *)
  let config = Config.quick in
  let preset =
    {
      P.Presets.label = "mini";
      machine =
        P.Machine.create ~total_processors:8 ~downtime:50. ~overhead:(P.Overhead.constant 100.);
      total_work = 2e5;
      processor_mtbf = 40_000.;
      job_processor_counts = [ 8 ];
    }
  in
  let dist = Setup.distribution Setup.Exponential ~mtbf:preset.P.Presets.processor_mtbf in
  let scenario =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors:8 ()
  in
  let names =
    List.map
      (fun p -> p.Ckpt_policies.Policy.name)
      (Setup.policies ~dp_makespan:true ~period_lb:false scenario)
  in
  check
    (Alcotest.list Alcotest.string)
    "roster"
    [ "Young"; "DalyLow"; "DalyHigh"; "OptExp"; "Bouguerra"; "Liu"; "DPNextFailure"; "DPMakespan" ]
    names

(* -- registry ------------------------------------------------------------------- *)

let test_registry_ids_unique () =
  let ids = Registry.ids () in
  check Alcotest.int "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  check Alcotest.bool "has the headline artifacts" true
    (List.for_all (fun id -> List.mem id ids)
       [ "fig1"; "table2"; "table3"; "fig2"; "fig4"; "fig5"; "fig7"; "table4"; "fig99" ])

let test_registry_find () =
  check Alcotest.bool "finds fig1" true (Registry.find "fig1" <> None);
  check Alcotest.bool "rejects nonsense" true (Registry.find "fig999" = None)

(* -- figure 1 (closed-form: cheap to verify end to end) ---------------------------- *)

let test_fig1_monotone_and_ordered () =
  let points = Fig1_mtbf.run () in
  check Alcotest.bool "nonempty" true (points <> []);
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
        check Alcotest.bool "MTBF decreases with p" true
          (b.Fig1_mtbf.mtbf_failed_only < a.Fig1_mtbf.mtbf_failed_only);
        pairwise rest
    | _ -> ()
  in
  pairwise points;
  List.iter
    (fun p ->
      check Alcotest.bool "k<1: rejuvenate-all is worse" true
        (p.Fig1_mtbf.mtbf_rejuvenate_all < p.Fig1_mtbf.mtbf_failed_only))
    points

let test_fig1_shape_one_equalizes () =
  (* With k = 1 (exponential) the two options coincide. *)
  List.iter
    (fun p ->
      close ~tol:1. "equal at k=1" p.Fig1_mtbf.mtbf_failed_only p.Fig1_mtbf.mtbf_rejuvenate_all)
    (Fig1_mtbf.run ~shape:1.0 ~exponents:[ 4; 8; 12 ] ())

(* -- miniature scaling study --------------------------------------------------------- *)

let mini_config = { Config.replicates = 3; full = false; seed = 0x5EEDL; sweep_dir = None }

let mini_preset =
  {
    P.Presets.label = "mini";
    machine =
      P.Machine.create ~total_processors:64 ~downtime:50. ~overhead:(P.Overhead.constant 100.);
    total_work = 4e6;
    processor_mtbf = 2e5;
    job_processor_counts = [ 16; 64 ];
  }

let test_scaling_study_structure () =
  let t =
    Scaling_study.run ~config:mini_config ~preset:mini_preset ~dist_kind:(Setup.Weibull 0.7) ()
  in
  check Alcotest.int "a point per processor count" 2 (List.length t.Scaling_study.points);
  List.iter
    (fun pt ->
      check Alcotest.int "three usable replicates" 3
        pt.Scaling_study.table.S.Evaluation.usable_replicates;
      List.iter
        (fun r ->
          if r.S.Evaluation.successes > 0 then
            check Alcotest.bool
              (Printf.sprintf "%s degradation sane" r.S.Evaluation.policy_name)
              true
              (r.S.Evaluation.average_degradation >= 1. -. 1e-9
              && r.S.Evaluation.average_degradation < 10.))
        pt.Scaling_study.table.S.Evaluation.results)
    t.Scaling_study.points

let test_degradation_series_extraction () =
  let t =
    Scaling_study.run ~config:mini_config ~preset:mini_preset ~dist_kind:(Setup.Weibull 0.7) ()
  in
  let series =
    Report.degradation_series
      (List.map (fun p -> (float_of_int p.Scaling_study.processors, p.Scaling_study.table))
         t.Scaling_study.points)
  in
  check Alcotest.bool "lower bound series first" true
    ((List.hd series).Report.label = "LowerBound");
  List.iter
    (fun s -> check Alcotest.int (s.Report.label ^ " covers the sweep") 2 (List.length s.Report.points))
    series

(* -- ablation: the Section 3.3 accuracy claim ----------------------------------------- *)

let test_psuc_approximation_error () =
  let points = Ablation.psuc_approximation_error ~config:mini_config ~processors:512 () in
  check Alcotest.int "seven chunk sizes" 7 (List.length points);
  List.iter
    (fun p ->
      check Alcotest.bool
        (Printf.sprintf "error %.2e below 1%%" p.Ablation.relative_error)
        true
        (p.Ablation.relative_error < 0.01))
    points

(* -- the paper's headline claim, end to end ----------------------------------------- *)

let test_headline_claim_dpnf_wins_on_weibull () =
  (* At scale, under bursty Weibull failures (k = 0.5), the MTBF-only
     periodic heuristics fall well behind DPNextFailure — the paper's
     central result, asserted here at a reduced but unambiguous scale
     (the gap at k = 0.5 is ~10%, far beyond run-to-run noise). *)
  let config = { Config.replicates = 4; full = false; seed = 0x5EEDL; sweep_dir = None } in
  let preset = P.Presets.petascale () in
  let dist = Setup.distribution (Setup.Weibull 0.5) ~mtbf:preset.P.Presets.processor_mtbf in
  let scenario =
    Setup.scenario ~config ~dist ~preset
      ~workload_model:P.Workload.Embarrassingly_parallel ~processors:4096 ()
  in
  let job = scenario.S.Scenario.job in
  let policies =
    [ Ckpt_policies.Young.policy job; Ckpt_policies.Optexp.policy job;
      Ckpt_policies.Dp_policies.dp_next_failure job ]
  in
  let table = S.Evaluation.degradation_table ~scenario ~policies ~replicates:4 in
  let degradation name =
    (List.find (fun r -> r.S.Evaluation.policy_name = name) table.S.Evaluation.results)
      .S.Evaluation.average_degradation
  in
  let dpnf = degradation "DPNextFailure" in
  check Alcotest.bool
    (Printf.sprintf "DPNF %.4f beats Young %.4f" dpnf (degradation "Young"))
    true
    (dpnf < degradation "Young");
  check Alcotest.bool
    (Printf.sprintf "DPNF %.4f beats OptExp %.4f" dpnf (degradation "OptExp"))
    true
    (dpnf < degradation "OptExp")

(* -- replication ------------------------------------------------------------------------ *)

let test_replication_runs () =
  let r =
    Replication.run ~config:mini_config ~processors:32 ~preset:mini_preset
      ~dist_kind:(Setup.Weibull 0.7) ()
  in
  check Alcotest.bool "all makespans positive" true
    (r.Replication.full_platform_makespan > 0.
    && r.Replication.half_platform_makespan > 0.
    && r.Replication.replicated_makespan > 0.);
  check Alcotest.bool "replication never slower than the plain half platform" true
    (r.Replication.replicated_makespan <= r.Replication.half_platform_makespan +. 1e-6)

let () =
  Alcotest.run "experiments"
    [
      ( "config",
        [
          Alcotest.test_case "environment" `Quick test_config_env;
          Alcotest.test_case "scale" `Quick test_config_scale;
          Alcotest.test_case "malformed CKPT_SEED warns" `Quick test_config_malformed;
          Alcotest.test_case "README knob table matches the code" `Quick test_readme_knob_table;
        ] );
      ( "report",
        [
          Alcotest.test_case "csv" `Quick test_csv_of_series;
          Alcotest.test_case "rows csv" `Quick test_csv_of_rows;
          Alcotest.test_case "failed policy never prints nan" `Quick
            test_csv_no_nan_for_failed_policy;
          Alcotest.test_case "sweep csv extends the series csv" `Quick
            test_csv_of_tables_extends_series_csv;
          Alcotest.test_case "write_csv mkdir" `Quick test_write_csv_creates_directories;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "structure" `Quick test_plot_structure;
          Alcotest.test_case "skips NaN" `Quick test_plot_skips_nan;
          Alcotest.test_case "rejects empty" `Quick test_plot_rejects_empty;
        ] );
      ( "setup",
        [
          Alcotest.test_case "distributions" `Quick test_setup_distribution;
          Alcotest.test_case "policy roster" `Quick test_setup_policy_roster;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
        ] );
      ( "fig1",
        [
          Alcotest.test_case "monotone, ordered" `Quick test_fig1_monotone_and_ordered;
          Alcotest.test_case "k=1 equalizes" `Quick test_fig1_shape_one_equalizes;
        ] );
      ( "studies",
        [
          Alcotest.test_case "scaling structure" `Quick test_scaling_study_structure;
          Alcotest.test_case "series extraction" `Quick test_degradation_series_extraction;
          Alcotest.test_case "psuc approximation" `Quick test_psuc_approximation_error;
          Alcotest.test_case "headline claim" `Quick test_headline_claim_dpnf_wins_on_weibull;
          Alcotest.test_case "replication" `Quick test_replication_runs;
        ] );
    ]
