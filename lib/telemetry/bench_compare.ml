(* Bench-trajectory regression tooling: compare two BENCH_*.json
   artifacts, provenance-aware.

   The committed artifacts are the performance record of this
   repository; a PR that silently regresses them defeats their
   purpose.  `ckpt bench diff OLD NEW` compares measurement fields
   under per-metric thresholds and direction heuristics, and *refuses*
   (distinct exit code) when the provenance sidecars show the two runs
   are not comparable in the first place — different core or domain
   counts make "20% slower" meaningless, not alarming.

   Field classification is by leaf-name convention, which every bench
   stage follows:
     *_per_sec, *speedup*   higher is better   (relative threshold)
     *_seconds, *_ms, *_us  lower is better    (relative threshold)
     *_percent              lower is better    (absolute percentage-
                                                point threshold)
   String/bool fields and workload-shape numbers (replicates,
   processors, ...) are configuration: any mismatch makes the pair
   incomparable.  Unrecognized numerics are skipped and listed. *)

module Atomic_file = Ckpt_store.Atomic_file

type direction = Higher_better | Lower_better | Lower_better_pp

let direction_name = function
  | Higher_better -> "higher-better"
  | Lower_better -> "lower-better"
  | Lower_better_pp -> "lower-better-pp"

type comparison = {
  c_metric : string;
  c_old : float;
  c_new : float;
  c_direction : direction;
  c_delta : float;  (* relative % for the rate/time classes, pp for percent *)
  c_threshold : float;
  c_regressed : bool;
  c_improved : bool;
}

type verdict = {
  v_old : string;
  v_new : string;
  v_comparisons : comparison list;
  v_config_mismatches : string list;  (* nonempty -> incomparable *)
  v_skipped : string list;
  v_warnings : string list;
}

(* -- flattening ------------------------------------------------------------- *)

(* "curve[2].stripe_seconds" — nested objects and arrays become dotted
   paths so a bench's per-point curve entries are compared
   individually. *)
let rec flatten prefix j acc =
  match j with
  | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          flatten (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        acc fields
  | Json.Arr elements ->
      List.fold_left
        (fun (acc, i) v -> (flatten (Printf.sprintf "%s[%d]" prefix i) v acc, i + 1))
        (acc, 0) elements
      |> fst
  | leaf -> (prefix, leaf) :: acc

let flatten j = List.rev (flatten "" j [])

(* The final path segment, stripped of any array index — the unit
   suffix conventions apply to it. *)
let leaf_name path =
  let seg =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  match String.index_opt seg '[' with Some i -> String.sub seg 0 i | None -> seg

let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let contains ~needle hay =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* Workload-shape numbers: a mismatch means the two artifacts measured
   different experiments, not the same experiment at different speed. *)
let config_leaves =
  [
    "replicates";
    "processors";
    "policies";
    "configurations";
    "runs";
    "domains";
    "processor_counts";
    "stripe";
    (* Stage 8 (multi-process sweeps): units/sec at differing worker
       counts, unit totals, or core counts are different experiments —
       refuse a verdict rather than call one a regression. *)
    "workers";
    "units";
    "physical_cores";
  ]

let classify path =
  let leaf = leaf_name path in
  if List.mem leaf config_leaves then `Config
  else if has_suffix ~suffix:"_per_sec" leaf || contains ~needle:"speedup" leaf then
    `Measure Higher_better
  else if has_suffix ~suffix:"_percent" leaf then `Measure Lower_better_pp
  else if
    has_suffix ~suffix:"_seconds" leaf || has_suffix ~suffix:"_ms" leaf
    || has_suffix ~suffix:"_us" leaf
  then `Measure Lower_better
  else `Other

let default_threshold = function
  | Higher_better -> 5.0  (* relative % *)
  | Lower_better -> 10.0  (* wall clock is the noisiest class *)
  | Lower_better_pp -> 2.0  (* absolute percentage points *)

(* -- provenance ------------------------------------------------------------- *)

let sidecar_path p = p ^ ".meta.json"

type provenance = { p_domains : float option; p_cores : float option }

let load_provenance path =
  match Atomic_file.read (sidecar_path path) with
  | None -> Error (Printf.sprintf "%s: missing sidecar %s" path (sidecar_path path))
  | Some text -> (
      match Json.parse text with
      | Error msg -> Error (Printf.sprintf "%s: unparseable sidecar: %s" path msg)
      | Ok j ->
          Ok
            {
              p_domains = Option.bind (Json.member j "domains") Json.to_float;
              p_cores =
                Option.bind (Json.path j [ "parameters"; "physical_cores" ]) Json.to_float;
            })

let provenance_mismatches ~old_path ~new_path =
  match (load_provenance old_path, load_provenance new_path) with
  | Error a, Error b -> ([], [ a; b ])
  | Error a, Ok _ | Ok _, Error a -> ([], [ a ])
  | Ok po, Ok pn ->
      let mism = ref [] in
      let opt_pair what fo fn pp =
        match (fo, fn) with
        | Some a, Some b when a <> b ->
            mism := Printf.sprintf "sidecar %s: %s vs %s" what (pp a) (pp b) :: !mism
        | _ -> ()
      in
      let fnum v = Printf.sprintf "%g" v in
      opt_pair "domains" po.p_domains pn.p_domains fnum;
      opt_pair "physical_cores" po.p_cores pn.p_cores fnum;
      (List.rev !mism, [])

(* -- diff ------------------------------------------------------------------- *)

let load path =
  match Atomic_file.read path with
  | None -> Error (Printf.sprintf "%s: cannot read" path)
  | Some text -> (
      match Json.parse text with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok j -> Ok j)

let compare_field ?threshold ~path ~direction vold vnew =
  let threshold = match threshold with Some t -> t | None -> default_threshold direction in
  match direction with
  | Lower_better_pp ->
      let delta = vnew -. vold in
      Some
        {
          c_metric = path;
          c_old = vold;
          c_new = vnew;
          c_direction = direction;
          c_delta = delta;
          c_threshold = threshold;
          c_regressed = delta > threshold;
          c_improved = delta < -.threshold;
        }
  | Higher_better | Lower_better ->
      if vold <= 0. then None  (* relative change undefined *)
      else begin
        let delta = 100. *. ((vnew -. vold) /. vold) in
        let regressed, improved =
          match direction with
          | Higher_better -> (delta < -.threshold, delta > threshold)
          | _ -> (delta > threshold, delta < -.threshold)
        in
        Some
          {
            c_metric = path;
            c_old = vold;
            c_new = vnew;
            c_direction = direction;
            c_delta = delta;
            c_threshold = threshold;
            c_regressed = regressed;
            c_improved = improved;
          }
      end

let diff ?threshold ~old_path ~new_path () =
  match (load old_path, load new_path) with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok jold, Ok jnew ->
      let fold = flatten jold and fnew = flatten jnew in
      let config_mismatches, sidecar_warnings = provenance_mismatches ~old_path ~new_path in
      let config_mismatches = ref config_mismatches in
      let comparisons = ref [] and skipped = ref [] and warnings = ref sidecar_warnings in
      List.iter
        (fun (path, vold) ->
          match List.assoc_opt path fnew with
          | None -> warnings := Printf.sprintf "%s: only in %s" path old_path :: !warnings
          | Some vnew -> (
              match (vold, vnew) with
              | Json.Num a, Json.Num b -> (
                  match classify path with
                  | `Measure direction -> (
                      match compare_field ?threshold ~path ~direction a b with
                      | Some c -> comparisons := c :: !comparisons
                      | None ->
                          warnings :=
                            Printf.sprintf "%s: old value %g not positive; skipped" path a
                            :: !warnings)
                  | `Config ->
                      if a <> b then
                        config_mismatches :=
                          Printf.sprintf "%s: %g vs %g" path a b :: !config_mismatches
                  | `Other -> skipped := path :: !skipped)
              | Json.Str a, Json.Str b ->
                  (* "bench", "distribution", "policy", ... — differing
                     strings mean different experiments. *)
                  if a <> b then
                    config_mismatches :=
                      Printf.sprintf "%s: %S vs %S" path a b :: !config_mismatches
              | Json.Bool a, Json.Bool b ->
                  if a <> b then
                    config_mismatches :=
                      Printf.sprintf "%s: %b vs %b" path a b :: !config_mismatches
              | _ ->
                  warnings := Printf.sprintf "%s: differing kinds" path :: !warnings))
        fold;
      List.iter
        (fun (path, _) ->
          if List.assoc_opt path fold = None then
            warnings := Printf.sprintf "%s: only in %s" path new_path :: !warnings)
        fnew;
      Ok
        {
          v_old = old_path;
          v_new = new_path;
          v_comparisons = List.rev !comparisons;
          v_config_mismatches = List.rev !config_mismatches;
          v_skipped = List.rev !skipped;
          v_warnings = List.rev !warnings;
        }

(* Exit codes are part of the CLI contract: 0 comparable and clean,
   1 regression(s), 2 load/parse error (mapped by the caller),
   3 incomparable provenance/configuration. *)
let exit_ok = 0
let exit_regression = 1
let exit_error = 2
let exit_incomparable = 3

let exit_code v =
  if v.v_config_mismatches <> [] then exit_incomparable
  else if List.exists (fun c -> c.c_regressed) v.v_comparisons then exit_regression
  else exit_ok

let verdict_json v =
  let comparison_json c =
    Json.Obj
      [
        ("metric", Json.Str c.c_metric);
        ("old", Json.Num c.c_old);
        ("new", Json.Num c.c_new);
        ("direction", Json.Str (direction_name c.c_direction));
        ( (match c.c_direction with Lower_better_pp -> "delta_pp" | _ -> "delta_percent"),
          Json.Num c.c_delta );
        ("threshold", Json.Num c.c_threshold);
        ("regressed", Json.Bool c.c_regressed);
        ("improved", Json.Bool c.c_improved);
      ]
  in
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    [
      ("old", Json.Str v.v_old);
      ("new", Json.Str v.v_new);
      ( "verdict",
        Json.Str
          (match exit_code v with
          | 0 -> "ok"
          | 1 -> "regression"
          | _ -> "incomparable") );
      ("exit_code", Json.Num (float_of_int (exit_code v)));
      ("comparisons", Json.Arr (List.map comparison_json v.v_comparisons));
      ("config_mismatches", strs v.v_config_mismatches);
      ("skipped", strs v.v_skipped);
      ("warnings", strs v.v_warnings);
    ]

(* -- check: artifact hygiene across a directory ----------------------------- *)

let is_bench_artifact name =
  String.length name > 6
  && String.sub name 0 6 = "BENCH_"
  && Filename.check_suffix name ".json"
  && not (Filename.check_suffix name ".meta.json")

let check_one path =
  let problems = ref [] in
  (match load path with
  | Error msg -> problems := msg :: !problems
  | Ok j -> (
      match Option.bind (Json.member j "bench") Json.to_string_opt with
      | Some _ -> ()
      | None -> problems := Printf.sprintf "%s: no \"bench\" field" path :: !problems));
  (match Atomic_file.read (sidecar_path path) with
  | None -> problems := Printf.sprintf "%s: missing sidecar" path :: !problems
  | Some text -> (
      match Json.parse text with
      | Error msg -> problems := Printf.sprintf "%s: unparseable sidecar: %s" path msg :: !problems
      | Ok j ->
          if Option.bind (Json.member j "schema") Json.to_string_opt = None then
            problems := Printf.sprintf "%s: sidecar has no \"schema\"" path :: !problems));
  List.rev !problems

let check ~dir =
  let entries = try Array.to_list (Sys.readdir dir) with Sys_error _ -> [] in
  entries
  |> List.filter is_bench_artifact
  |> List.sort compare
  |> List.map (fun name ->
         let path = Filename.concat dir name in
         (path, check_one path))
