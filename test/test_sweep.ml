(* Resumable sweep harness: atomic file primitives, the table-row fold
   under every stored unit, and the resume/invalidation semantics of
   the content-addressed store. *)

module Atomic_file = Ckpt_store.Atomic_file
module Summary = Ckpt_numerics.Summary
module Scenario = Ckpt_simulator.Scenario
module Evaluation = Ckpt_simulator.Evaluation
module Job = Ckpt_policies.Job
module Machine = Ckpt_platform.Machine
module Overhead = Ckpt_platform.Overhead
module Exponential = Ckpt_distributions.Exponential
module Sweep_store = Ckpt_experiments.Sweep_store

let check = Alcotest.check

(* Structural equality via [compare], which unlike [=] treats equal
   NaNs as equal (std over a single success is NaN). *)
let same_table msg a b =
  Alcotest.(check bool) msg true (compare a b = 0)

let dir_counter = ref 0

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | _ -> Sys.remove path

(* [f dir] on a fresh temporary directory, removed with everything in
   it afterwards, whatever [f] does. *)
let with_dir f =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ckpt_sweep_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  Atomic_file.mkdir_p d;
  Fun.protect ~finally:(fun () -> remove_tree d) (fun () -> f d)

(* A test case run in its own [with_dir] directory. *)
let in_dir test () = with_dir test

let with_env key value f =
  let previous = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv key (match previous with Some v -> v | None -> ""))

(* -- Atomic_file ------------------------------------------------------------- *)

let test_mkdir_p root =
  let nested = Filename.concat (Filename.concat root "a/b") "c" in
  Atomic_file.mkdir_p nested;
  Alcotest.(check bool) "nested path exists" true (Sys.is_directory nested);
  (* Idempotent on an existing directory. *)
  Atomic_file.mkdir_p nested;
  Alcotest.(check bool) "still a directory" true (Sys.is_directory nested)

let test_atomic_write root =
  let path = Filename.concat root "sub/dir/artifact.csv" in
  Atomic_file.write ~path "first\n";
  check Alcotest.(option string) "contents" (Some "first\n") (Atomic_file.read path);
  Atomic_file.write ~path "second\n";
  check Alcotest.(option string) "overwritten whole" (Some "second\n") (Atomic_file.read path);
  let leftovers =
    Sys.readdir (Filename.dirname path)
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  check Alcotest.(list string) "no tempfile left behind" [] leftovers

let test_remove_idempotent root =
  let path = Filename.concat root "victim" in
  Atomic_file.write ~path "x";
  Atomic_file.remove path;
  Alcotest.(check bool) "gone" false (Sys.file_exists path);
  (* INV-2: removing a missing file is a no-op, not an error. *)
  Atomic_file.remove path;
  Atomic_file.remove path;
  check Alcotest.(option string) "read of missing file" None (Atomic_file.read path)

(* -- table rows ------------------------------------------------------------- *)

let eval_scenario ?(seed = 0x5EEDL) () =
  Scenario.create ~seed ~horizon:1e7 ~start_time:0.
    (Job.create
       ~dist:(Exponential.of_mtbf ~mtbf:4000.)
       ~processors:1
       ~machine:
         (Machine.create ~total_processors:1 ~downtime:50. ~overhead:(Overhead.constant 100.))
       ~work_time:20_000.)

let policies job = [ Ckpt_policies.Young.policy job; Ckpt_policies.Optexp.policy job ]

let policy_names job =
  Array.of_list (List.map (fun p -> p.Ckpt_policies.Policy.name) (policies job))

(* A stripe partial is the fold of its table rows, so rows that went
   through the store's hex text fold to the plain table, bit for bit. *)
let test_table_rows_roundtrip () =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let scenario = eval_scenario () in
      let policies = policies scenario.Scenario.job in
      let policy_names = policy_names scenario.Scenario.job in
      let replicates = 6 in
      check Alcotest.int "stripe count" 3 (Evaluation.stripe_count ~replicates);
      let width = Evaluation.table_row_width ~policies:2 in
      check Alcotest.int "ten cells per policy and the LowerBound" 30 width;
      let reload = Array.map (Array.map (fun x -> float_of_string (Printf.sprintf "%h" x))) in
      let partials =
        List.init 3 (fun stripe ->
            let first, len = Evaluation.stripe_bounds ~replicates ~stripe in
            let rows = Evaluation.table_rows ~scenario ~policies ~first ~len in
            check Alcotest.int "one row per replicate" len (Array.length rows);
            Array.iter
              (fun row ->
                check Alcotest.int "row width" width (Array.length row);
                Alcotest.(check bool) "computed row passes the check" true
                  (Evaluation.table_row_ok ~policies:2 row))
              rows;
            Evaluation.partial_of_rows ~policy_names (reload rows))
      in
      same_table "table from reloaded rows == plain table"
        (Evaluation.degradation_table ~scenario ~policies ~replicates)
        (Evaluation.table_of_partials partials);
      (* What the check refuses, so the fold never meets it. *)
      let row = (Evaluation.table_rows ~scenario ~policies ~first:0 ~len:1).(0) in
      let edited f =
        let r = Array.copy row in
        f r;
        Evaluation.table_row_ok ~policies:2 r
      in
      let refused msg f = Alcotest.(check bool) msg false (edited f) in
      refused "group mixing NaN and finite cells" (fun r -> r.(3) <- nan);
      refused "non-positive makespan" (fun r -> r.(0) <- 0.);
      refused "LowerBound missing on a usable trace set" (fun r -> Array.fill r 20 10 nan);
      refused "LowerBound on an unusable trace set" (fun r -> Array.fill r 0 20 nan);
      refused "cell whose square overflows" (fun r -> r.(1) <- 1e200);
      refused "degradation whose square overflows" (fun r -> r.(10) <- 1e-160);
      Alcotest.(check bool) "failed policy run accepted" true
        (edited (fun r -> Array.fill r 10 10 nan));
      Alcotest.(check bool) "wrong width refused" false
        (Evaluation.table_row_ok ~policies:2 (Array.sub row 0 29)))

(* -- store resume semantics -------------------------------------------------- *)

let unit_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".part")
  |> List.sort compare

let run_store ?(seed = 0x5EEDL) ~dir ~replicates () =
  let scenario = eval_scenario ~seed () in
  let policies = policies scenario.Scenario.job in
  Sweep_store.degradation_table
    ~store:(Sweep_store.create ~dir)
    ~experiment:"unit_test" ~scenario ~policies ~replicates ()

let stats_since f =
  Sweep_store.reset_stats ();
  let v = f () in
  (v, Sweep_store.stats ())

let test_resume_bit_identical dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let replicates = 6 in
      let scenario = eval_scenario () in
      let plain =
        Evaluation.degradation_table ~scenario
          ~policies:(policies scenario.Scenario.job)
          ~replicates
      in
      let fresh, s1 = stats_since (fun () -> run_store ~dir ~replicates ()) in
      (* Structural [=]: these tables carry no NaN (>= 2 usable
         replicates), so bit-identity is checked at full strength. *)
      Alcotest.(check bool) "store table == plain table, bit for bit" true (plain = fresh);
      check Alcotest.int "all units computed" 3 s1.Sweep_store.computed;
      check Alcotest.int "units on disk" 3 (List.length (unit_files dir));
      let resumed, s2 = stats_since (fun () -> run_store ~dir ~replicates ()) in
      Alcotest.(check bool) "resumed == fresh" true (fresh = resumed);
      check Alcotest.int "all units skipped" 3 s2.Sweep_store.skipped;
      check Alcotest.int "nothing recomputed" 0 s2.Sweep_store.computed;
      (* Kill-mid-sweep stand-in: lose one unit, resume. *)
      (match unit_files dir with
      | first :: _ -> Atomic_file.remove (Filename.concat dir first)
      | [] -> Alcotest.fail "no unit files");
      let recovered, s3 = stats_since (fun () -> run_store ~dir ~replicates ()) in
      Alcotest.(check bool) "recovered == fresh" true (fresh = recovered);
      check Alcotest.int "only the lost unit recomputed" 1 s3.Sweep_store.computed;
      check Alcotest.int "the others skipped" 2 s3.Sweep_store.skipped)

let test_invalidation_on_corruption dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let fresh, _ = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
      (match unit_files dir with
      | first :: _ ->
          Atomic_file.write ~path:(Filename.concat dir first) "ckpt-sweep/1 bogus stripe=0\nx"
      | [] -> Alcotest.fail "no unit files");
      let recovered, s = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
      Alcotest.(check bool) "corruption recomputed to the same table" true (fresh = recovered);
      check Alcotest.int "one unit invalidated" 1 s.Sweep_store.invalidated;
      check Alcotest.int "one unit recomputed" 1 s.Sweep_store.computed;
      check Alcotest.int "the others skipped" 2 s.Sweep_store.skipped)

let test_changed_params_invalidate dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let t1, _ = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
      let files1 = unit_files dir in
      (* A different seed must hash to different unit keys: nothing is
         reused, nothing is overwritten (snippet INV-1 — concurrent
         sweeps with different parameters never collide). *)
      let t2, s = stats_since (fun () -> run_store ~seed:7L ~dir ~replicates:6 ()) in
      check Alcotest.int "nothing skipped under a new seed" 0 s.Sweep_store.skipped;
      check Alcotest.int "all units computed afresh" 3 s.Sweep_store.computed;
      let files2 = unit_files dir in
      check Alcotest.int "both sweeps' units coexist" 6 (List.length files2);
      List.iter
        (fun f -> Alcotest.(check bool) ("kept " ^ f) true (List.mem f files2))
        files1;
      Alcotest.(check bool) "different seeds give different tables" false (compare t1 t2 = 0);
      (* And the original sweep still resumes entirely from its own units. *)
      let t1', s' = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
      Alcotest.(check bool) "no cross-seed contamination" true (t1 = t1');
      check Alcotest.int "original fully skipped" 3 s'.Sweep_store.skipped)

(* Rosters that differ only in a policy parameter (a period, or
   DPNextFailure's [nexact]) land on distinct keys of one experiment
   and scenario, and each table is its store-less table (snippet
   INV-1 again: a key covers every parameter, not only the names). *)
let test_policy_parameters_change_keys dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let scenario = eval_scenario () in
      let job = scenario.Scenario.job in
      let dpnf ?nexact () = Ckpt_policies.Dp_policies.dp_next_failure ?nexact ~max_states:40 job in
      let variants =
        [
          ("period 900", [ Ckpt_policies.Policy.periodic "p" ~period:900. ]);
          ("period 2000", [ Ckpt_policies.Policy.periodic "p" ~period:2000. ]);
          ("default nexact", [ dpnf () ]);
          ("nexact 0", [ dpnf ~nexact:0 () ]);
        ]
      in
      List.iter
        (fun (label, policies) ->
          let stored, s =
            stats_since (fun () ->
                Sweep_store.degradation_table ~store:(Sweep_store.create ~dir)
                  ~experiment:"parameter_test" ~scenario ~policies ~replicates:6 ())
          in
          check Alcotest.int (label ^ ": nothing loaded") 0 s.Sweep_store.skipped;
          check Alcotest.int (label ^ ": every unit computed") 3 s.Sweep_store.computed;
          same_table (label ^ ": store table == store-less table")
            (Evaluation.degradation_table ~scenario ~policies ~replicates:6)
            stored)
        variants;
      check Alcotest.int "four rosters' units coexist" 12 (List.length (unit_files dir)))

let test_stripe_size_changes_keys dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      ignore (run_store ~dir ~replicates:6 ()));
  let files2 = unit_files dir in
  (* The stripe layout participates in the key: units merged at one
     width must never be reused at another (the merge tree differs). *)
  with_env "CKPT_SWEEP_STRIPE" "3" (fun () ->
      let _, s = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
      check Alcotest.int "no stripe-2 unit reused at width 3" 0 s.Sweep_store.skipped);
  List.iter
    (fun f -> Alcotest.(check bool) ("kept " ^ f) true (List.mem f (unit_files dir)))
    files2

let prop_prefix_resume =
  (* Any subset of completed units + resume == a fresh run: delete a
     random subset of the 3 unit files and re-run. *)
  QCheck2.Test.make ~name:"any completed-unit prefix resumes to the fresh table" ~count:8
    QCheck2.Gen.(int_range 0 7)
    (fun mask ->
      with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
          with_dir (fun dir ->
              let fresh = run_store ~dir ~replicates:6 () in
              List.iteri
                (fun i f ->
                  if mask land (1 lsl i) <> 0 then Atomic_file.remove (Filename.concat dir f))
                (unit_files dir);
              let resumed = run_store ~dir ~replicates:6 () in
              fresh = resumed)))

(* Row 3 is all-NaN — the "failed replicate" marker must survive the
   hex round trip through the store. *)
let vector_row replicate =
  if replicate = 3 then Array.make 4 nan
  else Array.init 4 (fun i -> float_of_int ((replicate * 4) + i) *. 0.5)

let vector_rows ~first ~len = Array.init len (fun i -> vector_row (first + i))

let run_vectors ?(width = 4) ~dir () =
  Sweep_store.vectors
    ~store:(Sweep_store.create ~dir)
    ~experiment:"vectors_test" ~scenario:(eval_scenario ()) ~policies:[] ~replicates:5 ~width
    ~f:(fun ~first ~len -> Array.map (fun r -> Array.sub r 0 width) (vector_rows ~first ~len))
    ()

let test_vectors_resume dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let fresh, s1 = stats_since (run_vectors ~dir) in
      check Alcotest.bool "vectors == the rows of every stripe" true
        (compare (Array.init 5 vector_row) fresh = 0);
      check Alcotest.int "three stripes computed" 3 s1.Sweep_store.computed;
      let resumed, s2 = stats_since (run_vectors ~dir) in
      check Alcotest.bool "resumed vectors bit-identical" true (compare fresh resumed = 0);
      check Alcotest.int "all stripes skipped" 3 s2.Sweep_store.skipped;
      (* The width is part of the key: narrower rows never load the
         wider units. *)
      let narrow, s3 = stats_since (run_vectors ~width:2 ~dir) in
      check Alcotest.int "another width computes afresh" 3 s3.Sweep_store.computed;
      check Alcotest.int "narrow rows" 2 (Array.length narrow.(0)))

(* [eval/replicates] counts every computed replicate of a vectors
   study, once, and a loaded unit counts nothing. *)
let test_vectors_count_replicates dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let module Metrics = Ckpt_telemetry.Metrics in
      let scenario = eval_scenario () in
      let policies = policies scenario.Scenario.job in
      let run () =
        Metrics.reset ~prefix:"eval/" ();
        ignore
          (Sweep_store.vectors ~store:(Sweep_store.create ~dir) ~experiment:"count_test" ~scenario
             ~policies ~replicates:5 ~width:12
             ~f:(Evaluation.stripe_rows ~scenario ~policies Evaluation.components_of_outcome)
             ());
        match Metrics.find "eval/replicates" with Some (Metrics.Counter n) -> n | _ -> -1
      in
      let was_enabled = Metrics.enabled () in
      Metrics.set_enabled true;
      Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) (fun () ->
          check Alcotest.int "every computed replicate counted" 5 (run ());
          check Alcotest.int "loaded units count nothing" 0 (run ())))

(* Rewrite the first unit file of [dir] whose name starts with [prefix]
   through [edit], which maps its lines to new lines. *)
let edit_unit ~dir ~prefix edit =
  match List.filter (String.starts_with ~prefix) (unit_files dir) with
  | name :: _ ->
      let path = Filename.concat dir name in
      let lines = String.split_on_char '\n' (Option.get (Atomic_file.read path)) in
      Atomic_file.write ~path (String.concat "\n" (edit lines))
  | [] -> Alcotest.fail "no unit files"

(* A unit whose header and payload parse but whose shape does not fit
   its stripe must read as invalidated, not be folded. *)
let test_table_shape_checked dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let fresh = run_store ~dir ~replicates:6 () in
      let invalidated msg edit =
        edit_unit ~dir ~prefix:"unit_test" (function
          | header :: format :: rows ->
              check Alcotest.string "row count and width line" "ckpt-vectors/1 2 30" format;
              edit header format rows
          | _ -> Alcotest.fail "unexpected unit layout");
        let recovered, s = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
        Alcotest.(check bool) (msg ^ ": recomputed to the fresh table") true (fresh = recovered);
        check Alcotest.int (msg ^ ": invalidated") 1 s.Sweep_store.invalidated;
        check Alcotest.int (msg ^ ": recomputed") 1 s.Sweep_store.computed
      in
      let cells row = String.split_on_char ' ' row in
      invalidated "policy group mixing NaN and finite cells" (fun header format rows ->
          match rows with
          | row :: rest ->
              header :: format
              :: String.concat " " (List.mapi (fun i c -> if i = 2 then "nan" else c) (cells row))
              :: rest
          | [] -> Alcotest.fail "no rows");
      invalidated "row of the wrong width" (fun header format rows ->
          match rows with
          | row :: rest ->
              header :: format :: String.concat " " (List.tl (cells row)) :: rest
          | [] -> Alcotest.fail "no rows");
      invalidated "too few rows" (fun header _ rows ->
          match rows with
          | row :: _ -> [ header; "ckpt-vectors/1 1 30"; row; "" ]
          | [] -> Alcotest.fail "no rows"))

(* A table unit written before tables were stored as rows (a
   [ckpt-eval-partial/2] dump of merged accumulators, abridged here to
   its header lines and one accumulator line) under a current key is
   invalidated, recomputed and overwritten. *)
let test_partial_unit_upgraded dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let fresh = with_dir (fun refdir -> run_store ~dir:refdir ~replicates:6 ()) in
      ignore (run_store ~dir ~replicates:6 ());
      let name = List.hd (unit_files dir) in
      let path = Filename.concat dir name in
      edit_unit ~dir ~prefix:name (function
        | header :: _ ->
            [
              header;
              "ckpt-eval-partial/2";
              "policies\tYoung\tOptExp";
              "replicates 2";
              "usable 2";
              "lb 2 0x1.2p+14 0x1p+10 0x1.1p+14 0x1.3p+14 2 0x1p+1 0x0p+0 0x1p+1 2 0x1p+2 0x0p+0 \
               0x1p+2 0x1p+2 0x1p+2 0x0p+0 0x1p+2 0x1p+2 0 0x1p+11 0x1p+12 7 2";
              "";
            ]
        | [] -> Alcotest.fail "empty unit");
      let upgraded, s = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
      check Alcotest.int "old-format unit invalidated" 1 s.Sweep_store.invalidated;
      check Alcotest.int "and recomputed" 1 s.Sweep_store.computed;
      check Alcotest.int "the others loaded" 2 s.Sweep_store.skipped;
      Alcotest.(check bool) "table bit-identical to a fresh run" true (fresh = upgraded);
      let lines = String.split_on_char '\n' (Option.get (Atomic_file.read path)) in
      check Alcotest.string "overwritten in the row format" "ckpt-vectors/1 2 30"
        (List.nth lines 1))

let test_vectors_shape_checked dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let fresh = run_vectors ~dir () in
      (* Drop the stripe's last row and edit the row count to match. *)
      edit_unit ~dir ~prefix:"vectors_test" (function
        | header :: format :: row :: _ ->
            check Alcotest.string "row count line" "ckpt-vectors/1 2 4" format;
            [ header; "ckpt-vectors/1 1 4"; row; "" ]
        | _ -> Alcotest.fail "unexpected unit layout");
      let recovered, s = stats_since (run_vectors ~dir) in
      check Alcotest.bool "recomputed to the fresh rows" true (compare fresh recovered = 0);
      check Alcotest.int "short unit invalidated" 1 s.Sweep_store.invalidated;
      check Alcotest.int "and recomputed" 1 s.Sweep_store.computed)

(* Unit names and bytes of a fixed table and vectors sweep: a store
   filled by an earlier build resumes with nothing recomputed only
   while these hold. *)
let test_store_keys_pinned dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let store = Sweep_store.create ~dir in
      let scenario = eval_scenario () in
      ignore
        (Sweep_store.degradation_table ~store ~params:[ ("point", "a") ] ~experiment:"pin_table"
           ~scenario ~policies:(policies scenario.Scenario.job) ~replicates:5 ());
      ignore
        (Sweep_store.vectors ~store ~experiment:"pin_vectors" ~scenario ~policies:[] ~replicates:5
           ~width:4 ~f:vector_rows ());
      check
        Alcotest.(list (pair string string))
        "unit names and MD5s"
        [
          ("pin_table-3656317304462542d2537e9b45be5d9a.stripe000.part", "e0d0df64d63df9647e254b4d2b21f0a7");
          ("pin_table-3656317304462542d2537e9b45be5d9a.stripe001.part", "388c2f25976796273de438c029ae0603");
          ("pin_table-3656317304462542d2537e9b45be5d9a.stripe002.part", "a1c25ced0965ba483c1ff6f50ecf879a");
          ("pin_vectors-1a19b03227d3680e1ea851f8ad37c238.stripe000.part", "5d0f6342b59834ea4f0830dc442db813");
          ("pin_vectors-1a19b03227d3680e1ea851f8ad37c238.stripe001.part", "40f2e7d76df36c10078859a81085ddaa");
          ("pin_vectors-1a19b03227d3680e1ea851f8ad37c238.stripe002.part", "c59fa1522b6d471e2020dc634f09fbce");
        ]
        (List.map
           (fun f -> (f, Digest.to_hex (Digest.file (Filename.concat dir f))))
           (unit_files dir)))

(* A study on the vectors path: a second pass over the filled store
   computes nothing and returns the first pass's points bit for bit. *)
let test_energy_study_resumes dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let module E = Ckpt_experiments in
      let preset =
        {
          Ckpt_platform.Presets.label = "mini";
          machine =
            Machine.create ~total_processors:64 ~downtime:50. ~overhead:(Overhead.constant 100.);
          total_work = 4e6;
          processor_mtbf = 2e5;
          job_processor_counts = [ 16; 64 ];
        }
      in
      let config = { E.Config.quick with E.Config.sweep_dir = Some dir } in
      let run () =
        E.Energy_study.run ~config ~processors:16 ~preset ~dist_kind:(E.Setup.Weibull 0.7) ()
      in
      let first, s1 = stats_since run in
      check Alcotest.int "two stripes computed" 2 s1.Sweep_store.computed;
      check Alcotest.int "nine periods" 9 (List.length first.E.Energy_study.points);
      let second, s2 = stats_since run in
      check Alcotest.int "nothing computed" 0 s2.Sweep_store.computed;
      check Alcotest.int "every unit skipped" 2 s2.Sweep_store.skipped;
      check Alcotest.bool "bit-identical points" true (compare first second = 0))

(* Units carry no payload checksum, so a flipped hex digit can still
   decode to a valid number: what must hold after any truncation or
   single-byte substitution of a unit is no exception and a result of
   the right shape. *)
let prop_damaged_unit_shape =
  (* Each store is filled once; every case plants a copy of its files
     in a directory of its own. *)
  let filled = Hashtbl.create 2 in
  let files_of ~table =
    match Hashtbl.find_opt filled table with
    | Some files -> files
    | None ->
        let files =
          with_dir (fun dir ->
              if table then ignore (run_store ~dir ~replicates:5 ())
              else ignore (run_vectors ~dir ());
              List.map
                (fun f -> (f, Option.get (Atomic_file.read (Filename.concat dir f))))
                (List.sort compare (Array.to_list (Sys.readdir dir))))
        in
        Hashtbl.replace filled table files;
        files
  in
  QCheck2.Test.make ~name:"a truncated or substituted unit never raises and keeps its shape"
    ~count:500
    QCheck2.Gen.(
      quad bool (int_range 0 2) (float_bound_exclusive 1.) (opt (int_range 1 255)))
    (fun (table, unit, at, substitute) ->
      with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
          let files = files_of ~table in
          with_dir (fun dir ->
              List.iter
                (fun (f, body) -> Atomic_file.write ~fsync:false ~path:(Filename.concat dir f) body)
                files;
              let path = Filename.concat dir (List.nth (unit_files dir) unit) in
              let pristine = Option.get (Atomic_file.read path) in
              let pos = int_of_float (at *. float_of_int (String.length pristine)) in
              Atomic_file.write ~path
                (match substitute with
                | None -> String.sub pristine 0 pos
                | Some d ->
                    String.mapi
                      (fun i c -> if i = pos then Char.chr ((Char.code c + d) mod 256) else c)
                      pristine);
              if table then begin
                let t = run_store ~dir ~replicates:5 () in
                t.Evaluation.replicates = 5
                && t.Evaluation.usable_replicates <= 5
                && List.map (fun r -> r.Evaluation.policy_name) t.Evaluation.results
                   = Array.to_list (policy_names (eval_scenario ()).Scenario.job)
              end
              else begin
                let rows = run_vectors ~dir () in
                Array.length rows = 5 && Array.for_all (fun r -> Array.length r = 4) rows
              end)))

(* -- claim protocol and worker mode ------------------------------------------ *)

let test_create_exclusive dir =
  let path = Filename.concat dir "unit.part.claim" in
  Alcotest.(check bool) "first create wins" true (Atomic_file.create_exclusive ~path "a");
  Alcotest.(check bool) "second create loses" false (Atomic_file.create_exclusive ~path "b");
  check Alcotest.(option string) "winner's payload intact" (Some "a") (Atomic_file.read path);
  Atomic_file.remove path;
  Alcotest.(check bool) "create after release wins again" true
    (Atomic_file.create_exclusive ~path "c");
  Alcotest.(check bool) "mtime readable" true
    (Option.is_some (Atomic_file.modification_time path));
  check
    Alcotest.(option (float 0.))
    "mtime of missing file" None
    (Atomic_file.modification_time (Filename.concat dir "absent"))

let test_claim_staleness dir =
  let host = Unix.gethostname () in
  let now = Unix.gettimeofday () in
  let claim name ~pid ~host ~time =
    let path = Filename.concat dir name in
    Sweep_store.Claim.write ~path ~pid ~host ~time;
    path
  in
  let live = claim "live.claim" ~pid:(Unix.getpid ()) ~host ~time:now in
  Alcotest.(check bool) "live same-host claim is fresh" false
    (Sweep_store.Claim.stale ~now live);
  (* A SIGKILLed worker leaves exactly this: same host, dead pid. *)
  let dead = claim "dead.claim" ~pid:999_999_999 ~host ~time:now in
  Alcotest.(check bool) "dead-pid same-host claim is stale" true
    (Sweep_store.Claim.stale ~now dead);
  let foreign = claim "foreign.claim" ~pid:999_999_999 ~host:"elsewhere.example" ~time:now in
  Alcotest.(check bool) "fresh foreign-host claim is kept (no pid check)" false
    (Sweep_store.Claim.stale ~now foreign);
  Alcotest.(check bool) "expired foreign-host claim is stale" true
    (Sweep_store.Claim.stale ~now:(now +. Sweep_store.Claim.ttl +. 1.) foreign);
  (* A claim whose payload has not landed yet (torn write) ages from
     its mtime instead of being treated as corrupt. *)
  let torn = Filename.concat dir "torn.claim" in
  Atomic_file.write ~path:torn "";
  Alcotest.(check bool) "empty payload is fresh now" false
    (Sweep_store.Claim.stale ~now:(Unix.gettimeofday ()) torn);
  Alcotest.(check bool) "empty payload ages out" true
    (Sweep_store.Claim.stale
       ~now:(Unix.gettimeofday () +. Sweep_store.Claim.ttl +. 1.)
       torn);
  Alcotest.(check bool) "missing claim is not stale" false
    (Sweep_store.Claim.stale ~now (Filename.concat dir "absent.claim"))

let plant_live_claim path =
  Sweep_store.Claim.write
    ~path:(Sweep_store.Claim.path path)
    ~pid:(Unix.getpid ())
    ~host:(Unix.gethostname ())
    ~time:(Unix.gettimeofday ())

(* Outstanding claim markers, counted on disk. *)
let claim_files dir =
  Array.fold_left
    (fun n name -> if Filename.check_suffix name ".claim" then n + 1 else n)
    0 (Sys.readdir dir)

(* The completed unit files in a store, sorted by name: stripe order
   within one experiment. *)
let unit_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun name -> Filename.check_suffix name ".part")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let in_worker_mode f =
  Sweep_store.set_worker_mode true;
  Fun.protect ~finally:(fun () -> Sweep_store.set_worker_mode false) f

let test_worker_mode_claims dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let reference = with_dir (fun refdir -> run_store ~dir:refdir ~replicates:6 ()) in
      let store = Sweep_store.create ~dir in
      in_worker_mode (fun () ->
          let t, s = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
          check Alcotest.int "lone worker computed every unit" 3 s.Sweep_store.computed;
          check Alcotest.int "one claim won per unit" 3 s.Sweep_store.claimed;
          check Alcotest.int "no busy units" 0 s.Sweep_store.busy;
          Alcotest.(check bool) "lone worker reproduces the table" true
            (compare reference t = 0));
      check Alcotest.int "claims all released" 0 (claim_files dir);
      let units = unit_files dir in
      check Alcotest.int "one unit file per stripe" 3 (List.length units);
      (* Simulate a live competing worker mid-compute on one unit:
         result absent, claim fresh and owned by a live pid. *)
      let victim = List.hd units in
      Atomic_file.remove victim;
      plant_live_claim victim;
      in_worker_mode (fun () ->
          let _, s = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
          check Alcotest.int "held unit skipped as busy" 1 s.Sweep_store.busy;
          check Alcotest.int "other units loaded" 2 s.Sweep_store.skipped;
          check Alcotest.int "nothing computed through a live claim" 0
            s.Sweep_store.computed);
      (* The canonical (non-worker) pass ignores claims entirely. *)
      let t, s = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
      check Alcotest.int "parent recomputed through the claim" 1 s.Sweep_store.computed;
      Alcotest.(check bool) "canonical merge == reference" true (compare reference t = 0);
      check Alcotest.int "leftover claim reaped" 1 (Sweep_store.reap_claims store);
      check Alcotest.int "store clean" 0 (claim_files dir))

let test_worker_mode_reaps_dead_claims dir =
  with_env "CKPT_SWEEP_STRIPE" "2" (fun () ->
      let reference, _ = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
      (match unit_files dir with
      | missing :: corrupt :: _ ->
          (* Unit 0: a worker died before persisting — no result, dead
             claim.  Unit 1: it died mid-write badly enough to corrupt
             the file (simulated), dead claim on top — the header check
             must still invalidate it under re-claim. *)
          Atomic_file.remove missing;
          Sweep_store.Claim.write
            ~path:(Sweep_store.Claim.path missing)
            ~pid:999_999_999 ~host:(Unix.gethostname ()) ~time:(Unix.gettimeofday ());
          Atomic_file.write ~path:corrupt
            "ckpt-sweep/1 bogus stripe=0\nx";
          Sweep_store.Claim.write
            ~path:(Sweep_store.Claim.path corrupt)
            ~pid:999_999_999 ~host:(Unix.gethostname ()) ~time:(Unix.gettimeofday ())
      | _ -> Alcotest.fail "expected 3 units");
      in_worker_mode (fun () ->
          let t, s = stats_since (fun () -> run_store ~dir ~replicates:6 ()) in
          check Alcotest.int "both dead claims reaped" 2 s.Sweep_store.reaped;
          check Alcotest.int "both units recomputed" 2 s.Sweep_store.computed;
          check Alcotest.int "corrupt unit invalidated by its header" 1
            s.Sweep_store.invalidated;
          check Alcotest.int "no unit left busy" 0 s.Sweep_store.busy;
          Alcotest.(check bool) "recovered table == reference" true
            (compare reference t = 0));
      check Alcotest.int "no claims left" 0 (claim_files dir))

let prop_worker_partition =
  (* Emulated N-worker sweep over a random study shape: unit ownership
     is arbitrated by real claim files (each emulated worker's pass
     sees live foreign claims on everyone else's stripes), then the
     canonical pass merges.  Must equal the serial table bit for bit
     for any (replicates, stripe width, N). *)
  QCheck2.Test.make ~name:"emulated N-worker sweep == serial, byte for byte" ~count:6
    QCheck2.Gen.(triple (int_range 1 10) (int_range 1 3) (oneofl [ 1; 2; 4 ]))
    (fun (replicates, stripe, workers) ->
      with_env "CKPT_SWEEP_STRIPE" (string_of_int stripe) (fun () ->
          let reference, layout =
            with_dir (fun refdir ->
                let reference = run_store ~dir:refdir ~replicates () in
                (reference, List.map Filename.basename (unit_files refdir)))
          in
          with_dir (fun dir ->
              (* The [i]-th unit file holds stripe [i]. *)
              let layout = List.mapi (fun stripe name -> (stripe, name)) layout in
              let owner (stripe, _) = stripe mod workers in
              let ok = ref true in
              for k = 0 to workers - 1 do
                let planted =
                  List.filter_map
                    (fun ((_, name) as u) ->
                      if owner u = k then None
                      else begin
                        let path = Filename.concat dir name in
                        plant_live_claim path;
                        Some (Sweep_store.Claim.path path)
                      end)
                    layout
                in
                in_worker_mode (fun () ->
                    let _, s = stats_since (fun () -> run_store ~dir ~replicates ()) in
                    let owned =
                      List.length (List.filter (fun u -> owner u = k) layout)
                    in
                    if s.Sweep_store.computed <> owned then ok := false);
                List.iter Atomic_file.remove planted
              done;
              let merged = run_store ~dir ~replicates () in
              !ok
              && claim_files dir = 0
              && List.length (unit_files dir) = List.length layout
              && compare reference merged = 0)))

let () =
  Alcotest.run "sweep"
    [
      ( "atomic_file",
        [
          Alcotest.test_case "mkdir_p" `Quick (in_dir test_mkdir_p);
          Alcotest.test_case "atomic write" `Quick (in_dir test_atomic_write);
          Alcotest.test_case "idempotent remove" `Quick (in_dir test_remove_idempotent);
        ] );
      ( "serialization",
        [ Alcotest.test_case "table rows round-trip" `Quick test_table_rows_roundtrip ] );
      ( "resume",
        [
          Alcotest.test_case "resume is bit-identical" `Quick (in_dir test_resume_bit_identical);
          Alcotest.test_case "corruption invalidates" `Quick (in_dir test_invalidation_on_corruption);
          Alcotest.test_case "changed params change keys" `Quick (in_dir test_changed_params_invalidate);
          Alcotest.test_case "policy parameters change keys" `Quick
            (in_dir test_policy_parameters_change_keys);
          Alcotest.test_case "stripe width changes keys" `Quick (in_dir test_stripe_size_changes_keys);
          QCheck_alcotest.to_alcotest prop_prefix_resume;
          Alcotest.test_case "vectors resume" `Quick (in_dir test_vectors_resume);
          Alcotest.test_case "vectors count their replicates" `Quick
            (in_dir test_vectors_count_replicates);
          Alcotest.test_case "table unit shape checked" `Quick (in_dir test_table_shape_checked);
          Alcotest.test_case "partial unit upgraded" `Quick (in_dir test_partial_unit_upgraded);
          Alcotest.test_case "vectors unit shape checked" `Quick (in_dir test_vectors_shape_checked);
          Alcotest.test_case "store keys pinned" `Quick (in_dir test_store_keys_pinned);
          Alcotest.test_case "energy study resumes" `Quick (in_dir test_energy_study_resumes);
          QCheck_alcotest.to_alcotest prop_damaged_unit_shape;
        ] );
      ( "claims",
        [
          Alcotest.test_case "exclusive create" `Quick (in_dir test_create_exclusive);
          Alcotest.test_case "claim staleness" `Quick (in_dir test_claim_staleness);
          Alcotest.test_case "worker mode claims and busy-skip" `Quick
            (in_dir test_worker_mode_claims);
          Alcotest.test_case "dead claims reaped under re-claim" `Quick
            (in_dir test_worker_mode_reaps_dead_claims);
          QCheck_alcotest.to_alcotest prop_worker_partition;
        ] );
    ]
