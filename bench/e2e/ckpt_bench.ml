(* End-to-end benchmark of the checkpointing simulator.

     ckpt_bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
     ckpt_bench compare PARENT.jsonl CHANGE.jsonl
     ckpt_bench summarize RUNS.jsonl

   A run repeats workload W in a closed loop — one job at a time, each
   in a fresh process, the next started when the previous has exited —
   until S seconds have passed, checks every output, and prints the
   medians of the end-to-end metrics as the last line of standard
   output.  With --trace 1 it then replays the workload once more with
   spans around each layer's entry points and prints the per-layer
   metrics instead.  Records land under --out (default
   _build/bench-e2e): <W>.json, runs.jsonl, and with tracing
   <W>.trace.json (Chrome trace_event) and <W>.layers.json. *)

module E = Ckpt_experiments
module Json = Ckpt_telemetry.Json
module Atomic_file = Ckpt_store.Atomic_file
module Provenance = Ckpt_telemetry.Provenance
module Stats = Bench_e2e.Stats
module Compare = Bench_e2e.Compare

let default_seed = 0x5EED
let default_seconds = 30.

(* Seconds a run may take before its job is killed and counted failed;
   a run must end within 180 s. *)
let run_budget = 165.

(* -- workloads ---------------------------------------------------------------- *)

type kind = Table of Workload.point list | Fig4_workers | Fig4_resume

let workloads =
  [
    ("table4", Table Workload.table4);
    ("table3", Table Workload.table3);
    ("fig4-workers", Fig4_workers);
    ("fig4-resume", Fig4_resume);
  ]

(* Replicates per table, or --traces per sweep point.  Table 4 keeps two
   stripes so both domains of a 2-core host evaluate; Table 3's cost is
   one DPMakespan solve whatever the count; Figure 4 stays at one
   stripe per point, which keeps a whole sweep within a run. *)
let replicates ~smoke = function "table4" when not smoke -> 32 | _ -> 8

(* Operations one job produces: tables, or store units. *)
let ops_per_job = function Table points -> List.length points | _ -> List.length Workload.fig4

let replicates_per_job ~smoke name = function
  | Table points -> List.length points * replicates ~smoke name
  | _ -> List.length Workload.fig4 * replicates ~smoke name

(* Output digests at seed 24301 and full size: the table cells (see
   Workload.digest) or the bytes of fig4.csv. *)
let golden =
  [
    ("table4", "4ad59eeeaa26ca852e89261274e863ab");
    ("table3", "72142f2c63b5a3f8c054678e5c6488ab");
    ("fig4-workers", "412d59013b19dbaf82b76725391981b2");
    ("fig4-resume", "412d59013b19dbaf82b76725391981b2");
  ]

(* -- per-layer metrics on standard output ------------------------------------ *)

let per_layer =
  [
    ("coverage", "ratio");
    ("trace_overhead_pct", "%");
    ("experiments.setup_s", "s");
    ("simulator.period_search_s", "s");
    ("policies.setup_s", "s");
    ("failures.trace_gen_s", "s");
    ("failures.trace_sets", "count");
    ("simulator.trace_cache_hit_ratio", "ratio");
    ("core.age_summary_s", "s");
    ("core.age_summary_calls", "count");
    ("core.dpnf_plan_s", "s");
    ("core.dpnf_solves", "count");
    ("core.dpnf_candidates", "count");
    ("core.dpm_decide_share", "ratio");
    ("core.dpm_solves", "count");
    ("core.dpm_cells", "count");
    ("core.dpm_tlost_hit_ratio", "ratio");
    ("policies.decide_s", "s");
    ("policies.decide_calls", "count");
    ("simulator.decision_memo_hit_ratio", "ratio");
    ("simulator.engine_self_s", "s");
    ("simulator.reduce_s", "s");
    ("parallel.utilization", "ratio");
    ("experiments.store_load_share", "ratio");
    ("experiments.worker_share", "ratio");
    ("experiments.parent_pass_share", "ratio");
    ("experiments.units_computed", "count");
    ("experiments.units_skipped", "count");
    ("experiments.units_busy", "count");
    ("store.units", "count");
    ("store.bytes", "B");
  ]

(* -- small helpers ------------------------------------------------------------- *)

let now = Unix.gettimeofday
let num x = Json.Num x
let str s = Json.Str s
let member_float j k = Option.bind (Json.member j k) Json.to_float
let member_string j k = Option.bind (Json.member j k) Json.to_string_opt

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let absolute path = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

let digest_file path =
  if Sys.file_exists path then Some (Digest.to_hex (Digest.file path)) else None

(* The last line of a child's output that parses as a JSON object. *)
let last_json (p : Proc.t) =
  List.rev p.Proc.lines
  |> List.find_map (fun (_, l) ->
         match Json.parse l with Ok (Json.Obj _ as j) -> Some j | _ -> None)

let summary_json (s : Stats.summary) =
  Json.Obj
    [
      ("median", num s.median); ("q1", num s.q1); ("q3", num s.q3); ("min", num s.min);
      ("max", num s.max); ("n", num (float_of_int s.n));
    ]

let append_line path line =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path (fun oc ->
      output_string oc (line ^ "\n"))

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string ~pretty:true j ^ "\n"))

(* -- a run ------------------------------------------------------------------------ *)

type ctx = {
  workload : string;
  kind : kind;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string;
  tmp : string;
  ckpt : string;
  nproc : int;
  start : float;
  failures : string list ref;  (** failed output checks, in order *)
}

let deadline ctx = ctx.start +. run_budget

let fail ctx fmt = Printf.ksprintf (fun msg -> ctx.failures := msg :: !(ctx.failures)) fmt

(* Children see none of the inherited CKPT_* knobs — a stale
   CKPT_ENGINE or CKPT_SCHED would silently measure another program —
   only the domain count, the seed and a results directory inside the
   run's temp dir. *)
let child_env ctx ~results =
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun e -> not (String.starts_with ~prefix:"CKPT_" e))
  in
  Array.of_list
    (inherited
    @ [
        Printf.sprintf "CKPT_DOMAINS=%d" ctx.nproc;
        Printf.sprintf "CKPT_SEED=%d" ctx.seed;
        "CKPT_RESULTS_DIR=" ^ results;
      ])

let spawn ?watch ctx ~results argv =
  Proc.run ?watch ~env:(child_env ctx ~results) ~deadline:(deadline ctx) argv

(* One job of the loop, as measured from outside. *)
type job = {
  wall : float;
  setup : float;
  cpu : float;
  peak_mb : float;
  ops : int;
  failed : int;
  digest : string option;
  extra : (string * float) list;  (** per-layer inputs read from the job's artifacts *)
}

let measured (p : Proc.t) ~setup ~ops ~failed ~digest ~extra =
  {
    wall = p.Proc.wall;
    setup;
    cpu = p.Proc.cpu;
    peak_mb = float_of_int p.Proc.peak_kb /. 1024.;
    ops;
    failed;
    digest;
    extra;
  }

let child_argv ctx extra =
  Array.of_list
    ([
       Sys.executable_name; "child"; "--workload"; ctx.workload; "--seed"; string_of_int ctx.seed;
       "--replicates"; string_of_int (replicates ~smoke:ctx.smoke ctx.workload);
     ]
    @ extra)

let table_job ctx =
  let n = ops_per_job ctx.kind in
  let p = spawn ctx ~results:(Filename.concat ctx.tmp "results") (child_argv ctx []) in
  match (Proc.ok p, last_json p) with
  | true, Some j ->
      let setup = Option.value (member_float j "setup_s") ~default:nan in
      measured p ~setup ~ops:n ~failed:0 ~digest:(member_string j "digest") ~extra:[]
  | _ ->
      fail ctx "%s child exited abnormally" ctx.workload;
      measured p ~setup:nan ~ops:n ~failed:n ~digest:None ~extra:[]

(* -- Figure 4 through the CLI -------------------------------------------------- *)

type sweep_stats = { skipped : int; computed : int; invalidated : int }

let sweep ?watch ctx ~store ~results ~workers =
  spawn ?watch ctx ~results
    [|
      ctx.ckpt; "sweep"; "--resume"; store; "--workers"; string_of_int workers; "--traces";
      string_of_int (replicates ~smoke:ctx.smoke ctx.workload); "fig4";
    |]

(* The canonical pass's closing line:
   "sweep store DIR: S units skipped, C computed, I invalidated, ..." *)
let sweep_stats (p : Proc.t) =
  List.rev p.Proc.lines
  |> List.find_map (fun (_, l) ->
         if not (String.starts_with ~prefix:"sweep store " l) then None
         else
           match String.rindex_opt l ':' with
           | None -> None
           | Some i ->
               Scanf.sscanf_opt
                 (String.sub l (i + 1) (String.length l - i - 1))
                 " %d units skipped, %d computed, %d invalidated"
                 (fun skipped computed invalidated -> { skipped; computed; invalidated }))

let store_files store suffix =
  Sys.readdir store |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f suffix)

let store_extra store =
  let parts = store_files store ".part" in
  [
    ("store.units", float_of_int (List.length parts));
    ( "store.bytes",
      float_of_int
        (List.fold_left
           (fun acc f -> acc + (Unix.stat (Filename.concat store f)).Unix.st_size)
           0 parts) );
  ]

let csv_digest results = digest_file (Filename.concat results "fig4.csv")

(* The write side of the store: a fresh store, one worker per core. *)
let workers_job ctx k =
  let units = ops_per_job ctx.kind in
  let store = Filename.concat ctx.tmp (Printf.sprintf "store-%d" k) in
  let results = Filename.concat ctx.tmp (Printf.sprintf "results-%d" k) in
  (* Its set-up: from spawn until the first unit is stored — worker
     start-up and the first point's policy construction, which every
     worker pass repeats. *)
  let first_unit = ref nan in
  let watch t =
    if Float.is_nan !first_unit && Sys.file_exists store && store_files store ".part" <> [] then
      first_unit := t
  in
  let p = sweep ~watch ctx ~store ~results ~workers:ctx.nproc in
  let workers =
    List.init ctx.nproc (fun i ->
        Option.bind (Atomic_file.read (E.Sweep_workers.stats_path ~dir:store ~index:i))
          (fun contents -> Result.to_option (Json.parse contents)))
  in
  (* "sweep: worker I (pid P) finished in Ts: ..." — or FAILED / KILLED. *)
  let finished =
    List.filter (fun (_, l) -> String.starts_with ~prefix:"sweep: worker " l) p.Proc.lines
  in
  let crashed =
    List.length
      (List.filter
         (fun (_, l) -> Scanf.sscanf_opt l "sweep: worker %_d (pid %_d) finished in" () = None)
         finished)
  in
  let stats = sweep_stats p in
  let on_disk = List.length (store_files store ".part") in
  let claims = List.length (store_files store ".claim") in
  let recomputed, invalidated =
    match stats with Some s -> (s.computed, s.invalidated) | None -> (units, 0)
  in
  if not (Proc.ok p) then fail ctx "fig4-workers: ckpt sweep exited abnormally";
  if List.length finished <> ctx.nproc || crashed > 0 then
    fail ctx "fig4-workers: %d of %d workers finished cleanly"
      (List.length finished - crashed)
      ctx.nproc;
  if on_disk <> units then
    fail ctx "fig4-workers: %d units in the store, expected %d" on_disk units;
  if claims > 0 then fail ctx "fig4-workers: %d claim markers left behind" claims;
  if recomputed > 0 || invalidated > 0 then
    fail ctx "fig4-workers: the merge pass recomputed %d and invalidated %d units" recomputed
      invalidated;
  let failed =
    if Proc.ok p then min units (units - on_disk + recomputed + invalidated) else units
  in
  let worker_field k =
    List.filter_map (fun w -> Option.bind w (fun j -> member_float j k)) workers
  in
  let seconds = worker_field "seconds" in
  let sum k = List.fold_left ( +. ) 0. (worker_field k) in
  let first_at prefix =
    List.find_map (fun (t, l) -> if String.starts_with ~prefix l then Some t else None) p.Proc.lines
  in
  let parent_pass =
    Option.fold ~none:nan ~some:(fun t -> p.Proc.wall -. t) (first_at "sweep: worker ")
  in
  measured p ~setup:!first_unit ~ops:units ~failed ~digest:(csv_digest results)
    ~extra:
      ([
         ("worker_max_s", List.fold_left Float.max 0. seconds);
         ("worker_min_s", List.fold_left Float.min infinity seconds);
         ("experiments.units_computed", sum "computed");
         ("experiments.units_skipped", sum "skipped");
         ("experiments.units_busy", sum "busy");
         ("parent_pass_s", parent_pass);
       ]
      @ store_extra store)

(* The read side of the same store: one untimed cold pass fills it (the
   run's set-up), then every timed pass loads all units and computes
   none. *)
type resume_store = { store : string; populate : Proc.t; populate_csv : string option }

let populate ctx =
  let store = Filename.concat ctx.tmp "store" in
  let results = Filename.concat ctx.tmp "results-populate" in
  let p = sweep ctx ~store ~results ~workers:1 in
  let units = ops_per_job ctx.kind in
  (match sweep_stats p with
  | Some s when Proc.ok p && s.computed = units -> ()
  | _ -> fail ctx "fig4-resume: the populate pass did not compute %d units" units);
  { store; populate = p; populate_csv = csv_digest results }

let resume_job ctx rs k =
  let units = ops_per_job ctx.kind in
  let results = Filename.concat ctx.tmp (Printf.sprintf "results-%d" k) in
  let p = sweep ctx ~store:rs.store ~results ~workers:1 in
  let digest = csv_digest results in
  let failed =
    match sweep_stats p with
    | Some s when Proc.ok p && digest = rs.populate_csv ->
        if s.computed > 0 || s.invalidated > 0 then
          fail ctx "fig4-resume: resume computed %d and invalidated %d units" s.computed
            s.invalidated;
        min units (s.computed + s.invalidated + (units - s.skipped))
    | _ ->
        fail ctx "fig4-resume: resume pass failed or its CSV differs from the populate pass";
        units
  in
  measured p ~setup:rs.populate.Proc.wall ~ops:units ~failed ~digest ~extra:(store_extra rs.store)

(* -- the closed loop ------------------------------------------------------------ *)

(* Jobs back to back for the run's seconds, counted from the end of the
   run's set-up: at least one, and another only while the median job so
   far would still end within them. *)
let loop ctx job =
  let t0 = now () in
  let rec go k acc =
    let acc = job k :: acc in
    let typical = Stats.median (List.map (fun j -> j.wall) acc) in
    if now () -. t0 +. typical <= ctx.seconds then go (k + 1) acc else List.rev acc
  in
  go 0 []

let e2e_values ctx jobs =
  let per_job =
    List.map
      (fun j ->
        let replicates = float_of_int (replicates_per_job ~smoke:ctx.smoke ctx.workload ctx.kind) in
        (* On fig4-resume the set-up pass is outside the timed job. *)
        let busy = match ctx.kind with Fig4_resume -> j.wall | _ -> j.wall -. j.setup in
        [
          ("wall_s", j.wall);
          ("setup_s", j.setup);
          ("cpu_s", j.cpu);
          ("replicates_per_s", replicates /. busy);
          ("peak_rss_mb", j.peak_mb);
        ])
      jobs
  in
  List.map
    (fun (m : Compare.metric) -> (m, Stats.summarize (List.map (List.assoc m.name) per_job)))
    Compare.end_to_end

let median_extra jobs name =
  match List.filter_map (fun j -> List.assoc_opt name j.extra) jobs with
  | [] -> 0.
  | vs -> Stats.median vs

(* -- the traced replay ------------------------------------------------------------ *)

(* Replays the workload once in a fresh child with spans around every
   layer's entry points, checks its output against the untraced jobs',
   and derives the per-layer metrics. *)
let traced ctx jobs ~store =
  let trace_out = Filename.concat ctx.out (ctx.workload ^ ".trace.json") in
  let extra =
    [ "--trace-out"; trace_out ] @ Option.fold ~none:[] ~some:(fun s -> [ "--store"; s ]) store
  in
  let p = spawn ctx ~results:(Filename.concat ctx.tmp "results-traced") (child_argv ctx extra) in
  let wall = Stats.median (List.map (fun j -> j.wall) jobs) in
  let expected = (List.hd jobs).digest in
  let j = if Proc.ok p then last_json p else None in
  let layers =
    match Option.bind j (fun j -> Json.member j "layers") with
    | None -> []
    | Some l ->
        List.filter_map (fun k -> Option.map (fun v -> (k, v)) (member_float l k)) (Json.keys l)
  in
  (match j with
  | None -> fail ctx "%s: traced replay exited abnormally" ctx.workload
  | Some j ->
      if member_string j "digest" <> expected then
        fail ctx "%s: traced replay's output differs from the untraced output" ctx.workload;
      if store <> None && member_string j "digest_loaded" <> expected then
        fail ctx "%s: tables loaded from the store differ from the CLI's output" ctx.workload;
      if store <> None && member_float j "store_computed" <> Some 0. then
        fail ctx "%s: the replay recomputed units the store should hold" ctx.workload);
  let top = Option.value (Option.bind j (fun j -> member_float j "top_s")) ~default:0. in
  let store_load = Option.value (List.assoc_opt "experiments.store_load_s" layers) ~default:0. in
  let derived =
    match ctx.kind with
    | Fig4_workers ->
        (* The CLI runs uninstrumented: its workers' own stats files and
           the parent's timestamped output are the trace. *)
        let worker_max = median_extra jobs "worker_max_s"
        and parent = median_extra jobs "parent_pass_s" in
        [
          ("coverage", (worker_max +. parent) /. wall);
          ("trace_overhead_pct", 0.);
          ("experiments.worker_share", worker_max /. wall);
          ("experiments.parent_pass_share", parent /. wall);
        ]
    | Fig4_resume -> [ ("coverage", top /. p.Proc.wall); ("trace_overhead_pct", 0.) ]
    | Table _ ->
        [
          ("coverage", top /. p.Proc.wall);
          ("trace_overhead_pct", 100. *. ((p.Proc.wall /. wall) -. 1.));
        ]
  in
  let from_jobs =
    List.map
      (fun k -> (k, median_extra jobs k))
      [
        "experiments.units_computed"; "experiments.units_skipped"; "experiments.units_busy";
        "store.units"; "store.bytes";
      ]
  in
  (* A layer the workload does not use reads 0. *)
  let known =
    derived @ from_jobs @ [ ("experiments.store_load_share", store_load /. p.Proc.wall) ] @ layers
  in
  let values =
    List.map
      (fun (name, _) -> (name, Option.value (List.assoc_opt name known) ~default:0.))
      per_layer
  in
  let detail =
    Json.Obj
      [
        ("workload", str ctx.workload);
        ("traced_wall_s", num p.Proc.wall);
        ("untraced_wall_s", num wall);
        ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) values));
        ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) layers));
        ( "policies",
          Option.value (Option.bind j (fun j -> Json.member j "policies")) ~default:(Json.Obj []) );
        ( "jobs",
          Json.Arr
            (List.map (fun j -> Json.Obj (List.map (fun (k, v) -> (k, num v)) j.extra)) jobs) );
      ]
  in
  write_json (Filename.concat ctx.out (ctx.workload ^ ".layers.json")) detail;
  values

(* -- one run, end to end ------------------------------------------------------------ *)

let provenance () =
  let manifest = Result.to_option (Json.parse (Provenance.manifest ())) in
  let field k = Option.bind manifest (fun m -> member_string m k) in
  [
    ("git", str (Option.value (field "git") ~default:"unknown"));
    ("ocaml", str (Option.value (field "ocaml") ~default:Sys.ocaml_version));
  ]

let run ctx =
  Atomic_file.mkdir_p ctx.out;
  Atomic_file.mkdir_p ctx.tmp;
  let jobs, store =
    match ctx.kind with
    | Table _ -> (loop ctx (fun _ -> table_job ctx), None)
    | Fig4_workers ->
        let jobs = loop ctx (workers_job ctx) in
        (jobs, Some (Filename.concat ctx.tmp (Printf.sprintf "store-%d" (List.length jobs - 1))))
    | Fig4_resume ->
        let rs = populate ctx in
        (loop ctx (resume_job ctx rs), Some rs.store)
  in
  (* Every job of a run sees the same inputs, so every output must be
     the same — and at the default seed and size, the golden one. *)
  let reference =
    if ctx.seed = default_seed && not ctx.smoke then List.assoc_opt ctx.workload golden
    else (List.hd jobs).digest
  in
  let jobs =
    List.map
      (fun j ->
        if j.failed = 0 && (j.digest = None || j.digest <> reference) then begin
          fail ctx "%s: output digest %s, expected %s" ctx.workload
            (Option.value j.digest ~default:"missing") (Option.value reference ~default:"missing");
          { j with failed = j.ops }
        end
        else j)
      jobs
  in
  let e2e = e2e_values ctx jobs in
  let layers, traced_ops, traced_failed =
    if ctx.trace then begin
      let before = List.length !(ctx.failures) in
      let values = traced ctx jobs ~store in
      (values, 1, if List.length !(ctx.failures) > before then 1 else 0)
    end
    else ([], 0, 0)
  in
  let attempted = traced_ops + List.fold_left (fun acc j -> acc + j.ops) 0 jobs in
  let failed = traced_failed + List.fold_left (fun acc j -> acc + j.failed) 0 jobs in
  let correct = failed = 0 && !(ctx.failures) = [] in
  let e2e_medians =
    List.map (fun ((m : Compare.metric), (s : Stats.summary)) -> (m.name, s.median)) e2e
  in
  let reported =
    if ctx.trace then
      List.map (fun (name, unit_) -> (name, unit_, List.assoc name layers)) per_layer
    else
      List.map
        (fun ((m : Compare.metric), (s : Stats.summary)) -> (m.name, m.unit_, s.median))
        e2e
  in
  let common =
    [
      ("workload", str ctx.workload);
      ("seed", num (float_of_int ctx.seed));
      ("trace", num (if ctx.trace then 1. else 0.));
      ("smoke", Json.Bool ctx.smoke);
      ("nproc", num (float_of_int ctx.nproc));
    ]
    @ provenance ()
  in
  write_json
    (Filename.concat ctx.out (ctx.workload ^ ".json"))
    (Json.Obj
       (common
       @ [
           ("correct", Json.Bool correct);
           ("attempted", num (float_of_int attempted));
           ("failed", num (float_of_int failed));
           ("checks_failed", Json.Arr (List.rev_map str !(ctx.failures)));
           ( "end_to_end",
             Json.Obj
               (List.map (fun ((m : Compare.metric), s) -> (m.name, summary_json s)) e2e) );
           ( "jobs",
             Json.Arr
               (List.map
                  (fun j ->
                    Json.Obj
                      ([
                         ("wall_s", num j.wall); ("setup_s", num j.setup); ("cpu_s", num j.cpu);
                         ("peak_rss_mb", num j.peak_mb); ("ops", num (float_of_int j.ops));
                         ("failed", num (float_of_int j.failed));
                       ]
                      @ List.map (fun (k, v) -> (k, num v)) j.extra))
                  jobs) );
         ]));
  append_line (Filename.concat ctx.out "runs.jsonl")
    (Json.to_string
       (Json.Obj
          (common
          @ [
              ("correct", Json.Bool correct);
              ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) (e2e_medians @ layers)));
            ])));
  rm_rf ctx.tmp;
  List.iter
    (fun msg -> Printf.eprintf "ckpt_bench: check failed: %s\n" msg)
    (List.rev !(ctx.failures));
  List.iter
    (fun ((m : Compare.metric), (s : Stats.summary)) ->
      Printf.printf "%-14s %-18s %12.6g %-5s  (q1 %.6g, q3 %.6g, n=%d)\n" ctx.workload m.name
        s.median m.unit_ s.q1 s.q3 s.n)
    e2e;
  if ctx.trace then
    List.iter
      (fun (name, unit_, v) -> Printf.printf "%-14s %-34s %14.6g %s\n" ctx.workload name v unit_)
      reported;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", num (float_of_int attempted));
            ("failed", num (float_of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit_, v) ->
                     (name, Json.Obj [ ("value", num v); ("unit", str unit_) ]))
                   reported) );
          ]));
  if correct then 0 else 1

(* -- the child side ------------------------------------------------------------------ *)

let child args =
  let get k = List.assoc_opt k args in
  let int k = Option.bind (get k) int_of_string_opt in
  let kind = Option.bind (get "--workload") (fun w -> List.assoc_opt w workloads) in
  match (kind, int "--seed", int "--replicates") with
  | Some kind, Some seed, Some replicates ->
      let points = match kind with Table points -> points | _ -> Workload.fig4 in
      let config =
        { E.Config.replicates; full = false; seed = Int64.of_int seed; sweep_dir = None }
      in
      let render tables =
        match kind with
        | Table _ -> Workload.digest tables
        | _ ->
            E.Report.csv_of_tables ~x_label:"processors"
              (List.map2
                 (fun (pt : Workload.point) t -> (float_of_int pt.processors, t))
                 points tables)
            |> Digest.string |> Digest.to_hex
      in
      let result =
        match get "--trace-out" with
        | None ->
            let setup, tables = Workload.plain ~config ~replicates points in
            [ ("setup_s", num setup); ("digest", str (render tables)) ]
        | Some path ->
            let origin = now () in
            let store = Option.map (fun dir -> E.Sweep_store.create ~dir) (get "--store") in
            let r = Workload.traced ~config ~replicates ?store points in
            write_json path (Span.chrome ~origin r.spans);
            [
              ("digest", str (render r.tables));
              ("top_s", num r.top_s);
              ("layers", Json.Obj r.layers);
              ("policies", r.policies);
            ]
            @
            if store = None then []
            else
              [
                ("digest_loaded", str (render r.loaded));
                ( "store_computed",
                  num (float_of_int (E.Sweep_store.stats ()).E.Sweep_store.computed) );
              ]
      in
      print_endline (Json.to_string (Json.Obj result));
      0
  | _ ->
      prerr_endline "ckpt_bench child: bad arguments";
      2

(* -- compare / summarize ---------------------------------------------------------------- *)

let read_runs path =
  match Atomic_file.read path with
  | None -> Error (path ^ ": cannot read")
  | Some contents -> Result.map_error (fun e -> path ^ ": " ^ e) (Compare.runs_of_string contents)

let compare_main parent change =
  match (read_runs parent, read_runs change) with
  | Error e, _ | _, Error e ->
      prerr_endline ("ckpt_bench compare: " ^ e);
      2
  | Ok parent, Ok change -> (
      match Compare.compare ~parent ~change with
      | Compare.Incomparable why ->
          Printf.printf "incomparable: %s\n" why;
          3
      | Compare.Verdicts rows ->
          Printf.printf "%-14s %-18s %-11s %12s %12s %8s %8s\n" "workload" "metric" "verdict"
            "parent" "change" "p-iqr%" "bound%";
          List.iter
            (fun (r : Compare.row) ->
              Printf.printf "%-14s %-18s %-11s %12.6g %12.6g %8.2f %8.1f\n" r.workload r.metric.name
                (Stats.verdict_name r.verdict) r.parent.median r.change.median
                (100. *. Stats.spread r.parent) (100. *. r.metric.bound))
            rows;
          if List.exists (fun (r : Compare.row) -> r.verdict = Stats.Worse) rows then 1 else 0)

let summarize_main path =
  match read_runs path with
  | Error e ->
      prerr_endline ("ckpt_bench summarize: " ^ e);
      2
  | Ok runs ->
      let workloads =
        List.sort_uniq compare (List.map (fun (r : Compare.run) -> r.workload) runs)
      in
      let group ~traced w =
        List.filter (fun (r : Compare.run) -> r.workload = w && r.traced = traced) runs
      in
      let stats names rs =
        List.filter_map
          (fun name ->
            match List.filter_map (fun (r : Compare.run) -> List.assoc_opt name r.values) rs with
            | [] -> None
            | vs -> Some (name, summary_json (Stats.summarize vs)))
          names
      in
      let by_workload ~traced names =
        Json.Obj (List.map (fun w -> (w, Json.Obj (stats names (group ~traced w)))) workloads)
      in
      print_endline
        (Json.to_string ~pretty:true
           (Json.Obj
              [
                ( "nproc",
                  Json.Arr
                    (List.map (fun n -> num (float_of_int n)) (Compare.cores runs)) );
                ("runs", num (float_of_int (List.length runs)));
                ( "end_to_end",
                  by_workload ~traced:false
                    (List.map (fun (m : Compare.metric) -> m.name) Compare.end_to_end) );
                ("per_layer", by_workload ~traced:true (List.map fst per_layer));
              ]));
      0

(* -- command line ------------------------------------------------------------------------ *)

let usage =
  "ckpt_bench --workload (table4|table3|fig4-workers|fig4-resume) [--seed N] [--seconds S] \
   [--trace 0|1] [--out DIR] [--smoke]\n\
   ckpt_bench compare PARENT.jsonl CHANGE.jsonl\n\
   ckpt_bench summarize RUNS.jsonl"

let main () =
  let workload = ref "" and seed = ref default_seed and seconds = ref default_seconds in
  let trace = ref 0 and out = ref "_build/bench-e2e" and smoke = ref false in
  let ckpt =
    ref (Filename.concat (Filename.dirname Sys.executable_name) "../../bin/ckpt.exe")
  in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 24301)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced replay");
      ("--out", Arg.Set_string out, "DIR where records go (default _build/bench-e2e)");
      ("--smoke", Arg.Set smoke, " 8 replicates per table, for a quick check");
      ("--ckpt", Arg.Set_string ckpt, "PATH the ckpt executable (default: built beside this one)");
    ]
  in
  let anonymous a = raise (Arg.Bad ("unexpected " ^ a)) in
  match Arg.parse_argv Sys.argv (Arg.align spec) anonymous usage with
  | exception Arg.Bad msg ->
      prerr_string msg;
      2
  | exception Arg.Help msg ->
      print_string msg;
      0
  | () -> (
      match List.assoc_opt !workload workloads with
      | None ->
          prerr_endline usage;
          2
      | Some _ when !trace <> 0 && !trace <> 1 ->
          prerr_endline usage;
          2
      | Some _ when not (Sys.file_exists !ckpt) ->
          Printf.eprintf "ckpt_bench: no ckpt executable at %s\n" !ckpt;
          2
      | Some kind ->
          (* Provenance asks git for the revision, here and in the CLI's
             sidecars: keep its repository search inside the checkout. *)
          Unix.putenv "GIT_CEILING_DIRECTORIES" (Filename.dirname (Sys.getcwd ()));
          let out = absolute !out in
          let ctx =
            {
              workload = !workload;
              kind;
              seed = !seed;
              seconds = !seconds;
              trace = !trace = 1;
              smoke = !smoke;
              out;
              tmp = Filename.concat out (Printf.sprintf "tmp-%d" (Unix.getpid ()));
              ckpt = absolute !ckpt;
              nproc = Domain.recommended_domain_count ();
              start = now ();
              failures = ref [];
            }
          in
          (* A job that overran the budget has been killed with its
             process tree; no result is printed. *)
          try run ctx
          with e ->
            rm_rf ctx.tmp;
            Printf.eprintf "ckpt_bench: %s: %s\n" ctx.workload (Printexc.to_string e);
            1)

let () =
  let rec pairs = function k :: v :: rest -> (k, v) :: pairs rest | _ -> [] in
  exit
    (match Array.to_list Sys.argv with
    | _ :: "child" :: rest -> child (pairs rest)
    | [ _; "compare"; parent; change ] -> compare_main parent change
    | [ _; "summarize"; runs ] -> summarize_main runs
    | _ -> main ())
