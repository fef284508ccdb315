(* Verdicts between two sets of benchmark runs (the parent commit's and
   a change's), one per (end-to-end metric, workload). *)

module Json = Ckpt_telemetry.Json

type metric = { name : string; unit_ : string; direction : Stats.direction; bound : float }

(* The end-to-end metrics every untraced run reports, with the share of
   the parent's median by which each may worsen before a change counts
   as a regression.  BENCHMARK.json lists the same names and bounds. *)
let end_to_end =
  [
    { name = "wall_s"; unit_ = "s"; direction = Lower_is_better; bound = 0.20 };
    { name = "setup_s"; unit_ = "s"; direction = Lower_is_better; bound = 0.25 };
    { name = "cpu_s"; unit_ = "s"; direction = Lower_is_better; bound = 0.20 };
    { name = "replicates_per_s"; unit_ = "1/s"; direction = Higher_is_better; bound = 0.20 };
    { name = "peak_rss_mb"; unit_ = "MB"; direction = Lower_is_better; bound = 0.15 };
  ]

(* One harness run, as appended to runs.jsonl. *)
type run = { workload : string; traced : bool; nproc : int; values : (string * float) list }

let run_of_json j =
  let ( let* ) = Option.bind in
  let* workload = Option.bind (Json.member j "workload") Json.to_string_opt in
  let* traced = Option.bind (Json.member j "trace") Json.to_float in
  let* nproc = Option.bind (Json.member j "nproc") Json.to_float in
  let* metrics = Json.member j "metrics" in
  let values =
    List.filter_map
      (fun k -> Option.map (fun v -> (k, v)) (Option.bind (Json.member metrics k) Json.to_float))
      (Json.keys metrics)
  in
  Some { workload; traced = traced <> 0.; nproc = int_of_float nproc; values }

(* Runs of a JSON-lines file; [Error] names the first unreadable line. *)
let runs_of_string contents =
  String.split_on_char '\n' contents
  |> List.filter (fun l -> String.trim l <> "")
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.fold_left
       (fun acc (i, line) ->
         Result.bind acc (fun runs ->
             match Result.to_option (Json.parse line) |> Fun.flip Option.bind run_of_json with
             | Some r -> Ok (r :: runs)
             | None -> Error (Printf.sprintf "line %d is not a benchmark run record" i)))
       (Ok [])
  |> Result.map List.rev

type row = {
  workload : string;
  metric : metric;
  verdict : Stats.verdict;
  parent : Stats.summary;
  change : Stats.summary;
}

type outcome =
  | Incomparable of string  (** the two sides ran on hosts with different core counts *)
  | Verdicts of row list

let cores runs = List.sort_uniq compare (List.map (fun (r : run) -> r.nproc) runs)

let compare ~parent ~change =
  let parent = List.filter (fun r -> not r.traced) parent
  and change = List.filter (fun r -> not r.traced) change in
  match (cores parent, cores change) with
  | [ p ], [ c ] when p = c ->
      let workloads = List.sort_uniq compare (List.map (fun (r : run) -> r.workload) parent) in
      let samples runs w m =
        List.filter_map
          (fun (r : run) -> if r.workload = w then List.assoc_opt m.name r.values else None)
          runs
      in
      Verdicts
        (List.concat_map
           (fun w ->
             List.filter_map
               (fun m ->
                 match (samples parent w m, samples change w m) with
                 | [], _ | _, [] -> None
                 | p, c ->
                     Some
                       {
                         workload = w;
                         metric = m;
                         verdict =
                           Stats.verdict ~direction:m.direction ~bound:m.bound ~parent:p
                             ~change:c;
                         parent = Stats.summarize p;
                         change = Stats.summarize c;
                       })
               end_to_end)
           workloads)
  | p, c ->
      let show l = String.concat "," (List.map string_of_int l) in
      Incomparable (Printf.sprintf "parent ran on %s cores, change on %s" (show p) (show c))
