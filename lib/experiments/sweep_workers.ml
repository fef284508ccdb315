(* Worker-process lifecycle for multi-process sweeps.

   The parent spawns N copies of the current executable (fork + exec,
   never a bare fork: the OCaml 5 runtime cannot be forked once domains
   exist, and `ckpt` has usually started its domain pool by the time a
   sweep is requested).  Each child re-runs the same deterministic
   experiment enumeration against the shared store in worker mode
   (Sweep_store claim markers arbitrate units), writes a stats file,
   and exits.  The parent waits, classifies each exit, reaps any
   leftover claims — every owner is dead by then — and runs the
   canonical serial-order pass itself, which loads every completed unit
   and computes whatever crashed workers left behind.  That final pass,
   not the workers, renders all output, which is why an N-worker sweep
   is byte-identical to --workers 1 by construction. *)

module Atomic_file = Ckpt_store.Atomic_file
module Json = Ckpt_telemetry.Json
module Domain_pool = Ckpt_parallel.Domain_pool

let env_var = "CKPT_SWEEP_WORKER"

let worker_index () =
  match Sys.getenv_opt env_var with
  | Some s -> int_of_string_opt (String.trim s)
  | None -> None

let log_path ~dir ~index = Filename.concat dir (Printf.sprintf "worker-%02d.log" index)

let stats_path ~dir ~index =
  Filename.concat dir (Printf.sprintf "worker-%02d.stats.json" index)

let results_scratch ~dir ~index =
  Filename.concat dir (Printf.sprintf "worker-%02d.results" index)

(* -- the worker side --------------------------------------------------------- *)

let write_stats ~path ~index ~seconds (s : Sweep_store.stats) =
  let field (k, v) = Printf.sprintf "  %S: %s" k v in
  let contents =
    [
      ("index", string_of_int index);
      ("pid", string_of_int (Unix.getpid ()));
      ("seconds", Printf.sprintf "%.6f" seconds);
      ("skipped", string_of_int s.Sweep_store.skipped);
      ("computed", string_of_int s.Sweep_store.computed);
      ("invalidated", string_of_int s.Sweep_store.invalidated);
      ("claimed", string_of_int s.Sweep_store.claimed);
      ("busy", string_of_int s.Sweep_store.busy);
      ("reaped", string_of_int s.Sweep_store.reaped);
    ]
    |> List.map field |> String.concat ",\n"
  in
  Atomic_file.write ~path ("{\n" ^ contents ^ "\n}\n")

let run_as_worker ~store ~index f =
  Sweep_store.set_worker_mode true;
  Sweep_store.reset_stats ();
  let t0 = Unix.gettimeofday () in
  (* Re-pass while the previous pass both computed something and found
     units busy elsewhere: a repeat pass is cheap (completed units just
     load) and picks up units freed since — tail rebalancing without
     polling.  If a pass computes nothing, whoever holds the remaining
     busy units is live and will finish them (or die and leave them to
     the parent), so exiting is safe. *)
  let rec pass () =
    let before = Sweep_store.stats () in
    f ();
    let after = Sweep_store.stats () in
    let computed = after.Sweep_store.computed - before.Sweep_store.computed in
    let busy = after.Sweep_store.busy - before.Sweep_store.busy in
    if computed > 0 && busy > 0 then pass ()
  in
  let finish () =
    write_stats
      ~path:(stats_path ~dir:(Sweep_store.dir store) ~index)
      ~index
      ~seconds:(Unix.gettimeofday () -. t0)
      (Sweep_store.stats ())
  in
  match pass () with
  | () -> finish ()
  | exception e ->
      (* Leave a stats file even on the way down: the parent reports the
         partial counts next to the crash. *)
      (try finish () with _ -> ());
      raise e

(* -- the parent side --------------------------------------------------------- *)

type outcome = Finished | Failed of int | Signaled of int

let outcome_of_status = function
  | Unix.WEXITED 0 -> Finished
  | Unix.WEXITED n -> Failed n
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s

type result = {
  r_index : int;
  r_pid : int;
  r_outcome : outcome;
  r_seconds : float;
  r_stats : Sweep_store.stats option;
}

type summary = {
  workers : result list;
  crashed : int;
  claims_reaped : int;  (** leftover claims removed after all exits *)
}

let env_with overrides =
  let names = List.map fst overrides in
  let keep entry =
    match String.index_opt entry '=' with
    | Some i -> not (List.mem (String.sub entry 0 i) names)
    | None -> true
  in
  Array.append
    (Array.of_seq
       (Seq.filter keep (Array.to_seq (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) overrides))

let read_stats path =
  match Atomic_file.read path with
  | None -> None
  | Some contents -> (
      match Json.parse contents with
      | Error _ -> None
      | Ok json ->
          let int k =
            match Option.bind (Json.member json k) Json.to_float with
            | Some f -> int_of_float f
            | None -> 0
          in
          Some
            ( {
                Sweep_store.skipped = int "skipped";
                computed = int "computed";
                invalidated = int "invalidated";
                claimed = int "claimed";
                busy = int "busy";
                reaped = int "reaped";
              },
              match Option.bind (Json.member json "seconds") Json.to_float with
              | Some s -> s
              | None -> 0. ))

(* Completed units on disk, for the progress line: the store's [*.part]
   files. *)
let count_units dir =
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.fold_left (fun n name -> if Filename.check_suffix name ".part" then n + 1 else n) 0 names

let launch ~store ~workers ~exe ~args ?(progress = fun ~alive:_ ~units:_ -> ()) () =
  if workers < 1 then invalid_arg "Sweep_workers.launch: workers must be >= 1";
  let dir = Sweep_store.dir store in
  (* Split the domain budget so N workers on one host do not multiply
     the domain count: each worker sees CKPT_DOMAINS = max 1 (total/N).
     An explicit CKPT_DOMAINS override is divided the same way. *)
  let per_worker = max 1 (Domain_pool.recommended_domains () / workers) in
  let spawn index =
    let log = log_path ~dir ~index in
    let scratch = results_scratch ~dir ~index in
    Atomic_file.mkdir_p scratch;
    Atomic_file.remove (stats_path ~dir ~index);
    (* Every process writes its exports at exit; a worker inheriting
       the parent's path would be overwritten by the parent. *)
    let per_worker_path var =
      match Ckpt_telemetry.Provenance.env_path var with
      | None -> []
      | Some path -> [ (var, Printf.sprintf "%s.worker-%02d" path index) ]
    in
    let env =
      env_with
        ([
           (env_var, string_of_int index);
           ("CKPT_DOMAINS", string_of_int per_worker);
           (* Workers re-run the full study code, including its CSV
              writers, against placeholder-polluted in-process tables;
              their output goes to a scratch directory (and their chatter
              to the log file) so only the parent's canonical pass writes
              user-visible artifacts. *)
           ("CKPT_RESULTS_DIR", scratch);
         ]
        @ per_worker_path "CKPT_SPANS_OUT"
        @ per_worker_path "CKPT_METRICS_OUT")
    in
    let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Unix.create_process_env exe args env Unix.stdin fd fd)
    in
    (index, pid, Unix.gettimeofday ())
  in
  let running = ref (List.init workers spawn) in
  let finished = ref [] in
  let last_units = ref (-1) in
  while !running <> [] do
    let still = ref [] in
    List.iter
      (fun (index, pid, t0) ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> still := (index, pid, t0) :: !still
        | _, status ->
            let seconds = Unix.gettimeofday () -. t0 in
            finished := (index, pid, status, seconds) :: !finished)
      !running;
    running := List.rev !still;
    if !running <> [] then begin
      let units = count_units dir in
      if units <> !last_units then begin
        last_units := units;
        progress ~alive:(List.length !running) ~units
      end;
      Unix.sleepf 0.2
    end
  done;
  let results =
    !finished
    |> List.map (fun (index, pid, status, seconds) ->
           let stats, stats_seconds =
             match read_stats (stats_path ~dir ~index) with
             | Some (s, secs) -> (Some s, secs)
             | None -> (None, 0.)
           in
           {
             r_index = index;
             r_pid = pid;
             r_outcome = outcome_of_status status;
             r_seconds = (if stats_seconds > 0. then stats_seconds else seconds);
             r_stats = stats;
           })
    |> List.sort (fun a b -> compare a.r_index b.r_index)
  in
  let crashed =
    List.length (List.filter (fun r -> r.r_outcome <> Finished) results)
  in
  (* Every worker has been waited on, so any claim left in the store is
     a straggler from a crash: remove them all.  (The parent's own pass
     would ignore them anyway — this keeps the store clean and makes
     the crash visible in the reaped counter.) *)
  let claims_reaped = Sweep_store.reap_claims store in
  { workers = results; crashed; claims_reaped }
