type series = { label : string; points : (float * float) list }

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let abscissas series =
  List.concat_map (fun s -> List.map fst s.points) series
  |> List.sort_uniq compare

let lookup s x =
  match List.assoc_opt x s.points with
  | Some v -> v
  | None -> nan

let print_series ~x_label ~y_label series =
  Printf.printf "# y: %s\n" y_label;
  Printf.printf "%-14s" x_label;
  List.iter (fun s -> Printf.printf " %14s" s.label) series;
  print_newline ();
  List.iter
    (fun x ->
      Printf.printf "%-14g" x;
      List.iter
        (fun s ->
          let v = lookup s x in
          if Float.is_nan v then Printf.printf " %14s" "-" else Printf.printf " %14.5g" v)
        series;
      print_newline ())
    (abscissas series);
  print_string "%!"

let print_table table = Format.printf "%a@." Ckpt_simulator.Evaluation.pp_table table

let degradation_series tables =
  let open Ckpt_simulator in
  let names =
    match tables with
    | [] -> []
    | (_, t) :: _ ->
        "LowerBound" :: List.map (fun r -> r.Evaluation.policy_name) t.Evaluation.results
  in
  List.map
    (fun name ->
      {
        label = name;
        points =
          List.map
            (fun (x, table) ->
              let r =
                if name = "LowerBound" then Some table.Evaluation.lower_bound
                else
                  List.find_opt
                    (fun r -> r.Evaluation.policy_name = name)
                    table.Evaluation.results
              in
              match r with
              | Some r when r.Evaluation.successes > 0 -> (x, r.Evaluation.average_degradation)
              | Some _ | None -> (x, nan))
            tables;
      })
    names

let csv_of_series ?(extra_header = []) ?(extra_cells = fun _ -> []) ~x_label series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf x_label;
  List.iter (fun s -> Buffer.add_string buf ("," ^ s.label)) series;
  List.iter (fun h -> Buffer.add_string buf ("," ^ h)) extra_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun x ->
      Buffer.add_string buf (Printf.sprintf "%g" x);
      List.iter
        (fun s ->
          let v = lookup s x in
          Buffer.add_string buf (if Float.is_nan v then "," else Printf.sprintf ",%g" v))
        series;
      List.iter (fun c -> Buffer.add_string buf ("," ^ c)) (extra_cells x);
      Buffer.add_char buf '\n')
    (abscissas series);
  Buffer.contents buf

(* -- waste-profile columns ---------------------------------------------------

   The distributional columns appended to every study CSV.  The order
   is fixed and shared between [csv_of_table] (one policy per row) and
   [csv_of_tables] (one abscissa per row, policies across): renderers
   and tests key on these names.  Cells print with [%.10g] — enough
   digits that [useful_s + checkpoint_s + wasted_s + recovery_s +
   stall_s] re-sums to [mk_mean_s] within the engine's accounting
   tolerance from the CSV text alone.  Non-finite values (no runs, or
   an interval with fewer than two runs) leave the cell empty, the
   same convention as the mean columns. *)

let profile_columns =
  [
    "mk_mean_s"; "mk_ci95_s"; "mk_p50_s"; "mk_p95_s"; "mk_p99_s"; "deg_ci95";
    "useful_s"; "checkpoint_s"; "wasted_s"; "recovery_s"; "stall_s";
    "useful_frac"; "checkpoint_frac"; "wasted_frac"; "recovery_frac";
    "stall_frac";
  ]

let float_cell v = if Float.is_finite v then Printf.sprintf "%.10g" v else ""

let csv_of_rows ~header rows =
  String.concat "" (List.map (fun cells -> String.concat "," cells ^ "\n") (header :: rows))

let profile_values profile =
  let open Ckpt_simulator.Evaluation in
  match profile with
  | None -> List.map (fun _ -> "") profile_columns
  | Some p ->
      List.map float_cell
        [
          p.mk_mean; p.mk_ci95; p.mk_p50; p.mk_p95; p.mk_p99; p.deg_ci95;
          p.useful_s; p.checkpoint_s; p.wasted_s; p.recovery_s; p.stall_s;
          p.useful_frac; p.checkpoint_frac; p.wasted_frac; p.recovery_frac;
          p.stall_frac;
        ]

let csv_of_table table =
  let open Ckpt_simulator in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "policy,avg_degradation,std_degradation,avg_makespan_s,successes,avg_failures,max_failures";
  List.iter (fun c -> Buffer.add_string buf ("," ^ c)) profile_columns;
  Buffer.add_char buf '\n';
  (* Undefined cells (policy never completed, or a single run with no
     defined deviation) stay empty, as in [csv_of_series]. *)
  let cell v = if Float.is_nan v then "" else Printf.sprintf "%g" v in
  let row (r : Evaluation.policy_result) =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s,%d,%s,%d" r.Evaluation.policy_name
         (cell r.Evaluation.average_degradation)
         (cell r.Evaluation.std_degradation)
         (cell r.Evaluation.average_makespan)
         r.Evaluation.successes
         (cell r.Evaluation.average_failures)
         r.Evaluation.max_failures);
    List.iter (fun c -> Buffer.add_string buf ("," ^ c)) (profile_values r.Evaluation.profile);
    Buffer.add_char buf '\n'
  in
  row table.Evaluation.lower_bound;
  List.iter row table.Evaluation.results;
  Buffer.contents buf

let result_of_table name (table : Ckpt_simulator.Evaluation.table) =
  let open Ckpt_simulator in
  if name = "LowerBound" then Some table.Evaluation.lower_bound
  else
    List.find_opt (fun r -> r.Evaluation.policy_name = name) table.Evaluation.results

(* The degradation series, then each policy's waste-profile block per
   abscissa. *)
let csv_of_tables ~x_label tables =
  let series = degradation_series tables in
  let names = List.map (fun s -> s.label) series in
  csv_of_series ~x_label series
    ~extra_header:
      (List.concat_map (fun n -> List.map (fun c -> n ^ "_" ^ c) profile_columns) names)
    ~extra_cells:(fun x ->
      List.concat_map
        (fun n ->
          profile_values
            (Option.bind (List.assoc_opt x tables) (fun t ->
                 Option.bind (result_of_table n t) (fun r -> r.Ckpt_simulator.Evaluation.profile))))
        names)

let results_dir () =
  match Sys.getenv_opt "CKPT_RESULTS_DIR" with Some d when d <> "" -> d | _ -> "results"

let write_csv ?(meta = []) ~path contents =
  (* Atomic (tempfile + fsync + rename): a crash or a concurrent
     reader never sees a torn CSV, and a genuine mkdir failure raises
     here instead of being swallowed and resurfacing as a confusing
     open error. *)
  Ckpt_store.Atomic_file.write ~path contents;
  (* Every artifact carries its provenance: "<path>.meta.json" with
     the git revision, command line, CKPT_* knobs, domain count and
     the caller's parameters. *)
  Ckpt_telemetry.Provenance.write_sidecar ~extra:meta ~path ()
