module Scenario = Ckpt_simulator.Scenario
module Evaluation = Ckpt_simulator.Evaluation
module Policy = Ckpt_policies.Policy
module Job = Ckpt_policies.Job
module Machine = Ckpt_platform.Machine
module Overhead = Ckpt_platform.Overhead
module Distribution = Ckpt_distributions.Distribution
module Atomic_file = Ckpt_store.Atomic_file
module Metrics = Ckpt_telemetry.Metrics
module Provenance = Ckpt_telemetry.Provenance

type t = { root : string }

let create ~dir =
  Atomic_file.mkdir_p dir;
  { root = dir }

let dir t = t.root

let of_config config =
  match config.Config.sweep_dir with None -> None | Some d -> Some (create ~dir:d)

(* -- worker mode -------------------------------------------------------------

   In worker mode (set by the per-process sweep workers of
   [Sweep_workers], never by the parent) a missing unit is computed
   only after winning its claim marker; units claimed by another live
   worker are skipped and the caller substitutes a merge-neutral
   placeholder.  Worker-side reductions are discarded — only the
   parent's canonical pass renders output — so the placeholder never
   reaches a table anyone reads. *)

let worker_flag = Atomic.make false
let set_worker_mode b = Atomic.set worker_flag b
let worker_mode () = Atomic.get worker_flag

(* -- unit counters ----------------------------------------------------------- *)

type stats = {
  skipped : int;
  computed : int;
  invalidated : int;
  claimed : int;
  busy : int;
  reaped : int;
}

let skipped = Atomic.make 0
let computed = Atomic.make 0
let invalidated = Atomic.make 0
let claimed = Atomic.make 0
let busy = Atomic.make 0
let reaped = Atomic.make 0
let m_skipped = Metrics.counter "sweep/units_skipped"
let m_computed = Metrics.counter "sweep/units_computed"
let m_invalidated = Metrics.counter "sweep/units_invalidated"
let m_claimed = Metrics.counter "sweep/claims_won"
let m_busy = Metrics.counter "sweep/claims_busy"
let m_reaped = Metrics.counter "sweep/claims_reaped"

let bump cell counter =
  Atomic.incr cell;
  Metrics.incr counter

let stats () =
  { skipped = Atomic.get skipped; computed = Atomic.get computed;
    invalidated = Atomic.get invalidated; claimed = Atomic.get claimed;
    busy = Atomic.get busy; reaped = Atomic.get reaped }

let reset_stats () =
  Atomic.set skipped 0;
  Atomic.set computed 0;
  Atomic.set invalidated 0;
  Atomic.set claimed 0;
  Atomic.set busy 0;
  Atomic.set reaped 0

(* -- content addressing ------------------------------------------------------

   The unit key digests every input the unit's result depends on:
   experiment name, the full scenario (distribution, job shape,
   machine, seed, horizon), the policy roster, the replicate count and
   the stripe layout, plus any caller-supplied parameters.  Floats are
   rendered in hexadecimal so the key sees their exact bits.  Any
   change lands on a fresh key — the snippet-style invalidation rule:
   stale state is never consulted, only orphaned. *)

let hex = Printf.sprintf "%h"

let fingerprint ~kind ~experiment ~scenario ~policy_names ~replicates ~params =
  let job = scenario.Scenario.job in
  let machine = job.Job.machine in
  let dist = job.Job.dist in
  let overhead =
    match machine.Machine.overhead with
    | Overhead.Constant c -> Printf.sprintf "constant:%s" (hex c)
    | Overhead.Proportional { cost_at; reference_processors } ->
        Printf.sprintf "proportional:%s@%d" (hex cost_at) reference_processors
  in
  let base =
    [
      ("kind", kind);
      ("experiment", experiment);
      ("dist", dist.Distribution.name);
      ("dist_mean", hex dist.Distribution.mean);
      ("processors", string_of_int job.Job.processors);
      ("group_size", string_of_int job.Job.group_size);
      ("work_time", hex job.Job.work_time);
      ("total_processors", string_of_int machine.Machine.total_processors);
      ("downtime", hex machine.Machine.downtime);
      ("overhead", overhead);
      ("seed", Int64.to_string scenario.Scenario.seed);
      ("horizon", hex scenario.Scenario.horizon);
      ("start_time", hex scenario.Scenario.start_time);
      ("policies", String.concat "," policy_names);
      ("replicates", string_of_int replicates);
      ("stripe_size", string_of_int (Evaluation.stripe_size ()));
    ]
  in
  base @ List.sort compare params

let digest_of fields =
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) fields)))

let sanitize s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
    s

let unit_path store ~experiment ~digest ~stripe =
  Filename.concat store.root
    (Printf.sprintf "%s-%s.stripe%03d.part" (sanitize experiment) digest stripe)

(* -- unit persistence --------------------------------------------------------

   One file per unit: a header binding the content digest and stripe
   index, then the payload.  The header guards against a file whose
   name and contents disagree (manual copies, filesystem corruption);
   such a unit counts as invalidated and is recomputed in place. *)

(* -- claim markers -----------------------------------------------------------

   A claim is a cooperative lock on one unit: `<unit>.claim`, created
   with O_EXCL (the one filesystem operation whose winner is
   unambiguous even on shared filesystems), carrying an advisory
   pid/host/timestamp payload.  Claims only gate *worker-mode compute*;
   loads never consult them and the parent's canonical pass ignores
   them entirely, so a wedged claim can cost duplicated work but never
   wrong output — unit writes are atomic and idempotent under the
   content key, so two processes computing the same unit produce the
   same bytes and the loser's rename is harmless.

   Staleness has two triggers: a dead pid (checked only for same-host
   claims, where [kill pid 0] is meaningful) and an age beyond
   [Claim.ttl] (10 min) for everything else, including claims whose
   payload has not landed yet or is torn.  Reaping races
   (two workers both observing a stale claim, or the holder releasing
   between our check and our unlink) at worst duplicate one unit's
   compute — see above. *)

module Claim = struct
  let format = "ckpt-claim/1"
  let path unit_path = unit_path ^ ".claim"
  let ttl = 600.

  let payload ~pid ~host ~time =
    Printf.sprintf "%s pid=%d host=%s time=%h\n" format pid host time

  let write ~path ~pid ~host ~time =
    Atomic_file.write ~fsync:false ~path (payload ~pid ~host ~time)

  let parse contents =
    match
      String.split_on_char ' ' (String.trim contents)
      |> List.filter (fun s -> s <> "")
    with
    | [ fmt; pid; host; time ]
      when fmt = format
           && String.starts_with ~prefix:"pid=" pid
           && String.starts_with ~prefix:"host=" host
           && String.starts_with ~prefix:"time=" time -> (
        let drop prefix s =
          String.sub s (String.length prefix) (String.length s - String.length prefix)
        in
        match
          (int_of_string_opt (drop "pid=" pid), float_of_string_opt (drop "time=" time))
        with
        | Some pid, Some time -> Some (pid, drop "host=" host, time)
        | _ -> None)
    | _ -> None

  let pid_alive pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (ESRCH, _, _) -> false
    (* EPERM means the pid exists but belongs to someone else. *)
    | exception Unix.Unix_error (_, _, _) -> true

  let stale ~now path =
    match Atomic_file.read path with
    | None -> false (* vanished — nothing left to reap *)
    | Some contents -> (
        match parse contents with
        | Some (pid, host, time) ->
            if host = Unix.gethostname () && not (pid_alive pid) then true
            else now -. time > ttl
        | None -> (
            (* Empty or torn payload: the creator may still be between
               O_EXCL and write.  Fresh until its mtime ages out. *)
            match Atomic_file.modification_time path with
            | Some mtime -> now -. mtime > ttl
            | None -> false))

  let acquire unit_path =
    let cpath = path unit_path in
    let mine () =
      payload ~pid:(Unix.getpid ()) ~host:(Unix.gethostname ())
        ~time:(Unix.gettimeofday ())
    in
    let rec attempt retries =
      if Atomic_file.create_exclusive ~path:cpath (mine ()) then `Won
      else if retries > 0 && stale ~now:(Unix.gettimeofday ()) cpath then begin
        Atomic_file.remove cpath;
        bump reaped m_reaped;
        attempt (retries - 1)
      end
      else `Busy
    in
    attempt 3

  let release unit_path = Atomic_file.remove (path unit_path)
end

let header ~digest ~stripe = Printf.sprintf "ckpt-sweep/1 %s stripe=%d" digest stripe

(* Inspect a unit file without touching the counters — the per-call
   accounting lives in [load_or_compute_opt], which may examine the
   same path more than once while arbitrating a claim. *)
let examine ~path ~digest ~stripe ~decode =
  match Atomic_file.read path with
  | None -> `Absent
  | Some contents -> (
      let valid =
        match String.index_opt contents '\n' with
        | None -> None
        | Some i ->
            if String.sub contents 0 i <> header ~digest ~stripe then None
            else decode (String.sub contents (i + 1) (String.length contents - i - 1))
      in
      match valid with Some v -> `Valid v | None -> `Corrupt)

let persist ~path ~digest ~stripe ~fields payload =
  Atomic_file.write ~path (header ~digest ~stripe ^ "\n" ^ payload);
  Provenance.write_sidecar
    ~extra:(("unit_stripe", string_of_int stripe) :: fields)
    ~path ()

let compute_and_persist ~path ~digest ~stripe ~fields ~encode compute =
  let v = compute () in
  persist ~path ~digest ~stripe ~fields (encode v);
  bump computed m_computed;
  v

(* [None] only in worker mode, for a unit another live worker holds. *)
let load_or_compute_opt ~path ~digest ~stripe ~fields ~decode ~encode compute =
  let ex () =
    Ckpt_telemetry.Span.time ~layer:"experiments.store_load" "Sweep_store.examine" (fun () ->
        examine ~path ~digest ~stripe ~decode)
  in
  match ex () with
  | `Valid v ->
      bump skipped m_skipped;
      Some v
  | (`Absent | `Corrupt) as first ->
      if first = `Corrupt then bump invalidated m_invalidated;
      if not (worker_mode ()) then
        Some (compute_and_persist ~path ~digest ~stripe ~fields ~encode compute)
      else begin
        match Claim.acquire path with
        | `Won -> (
            bump claimed m_claimed;
            (* The previous holder may have persisted the unit and
               released between our first look and our win. *)
            match ex () with
            | `Valid v ->
                Claim.release path;
                bump skipped m_skipped;
                Some v
            | `Absent | `Corrupt ->
                let v =
                  Fun.protect
                    ~finally:(fun () -> Claim.release path)
                    (fun () ->
                      compute_and_persist ~path ~digest ~stripe ~fields ~encode compute)
                in
                Some v)
        | `Busy -> (
            (* The holder may have finished while we were acquiring. *)
            match ex () with
            | `Valid v ->
                bump skipped m_skipped;
                Some v
            | `Absent | `Corrupt ->
                bump busy m_busy;
                None)
      end


(* -- unit / claim enumeration ------------------------------------------------

   The unit set of a sweep is defined by the deterministic experiment
   enumeration (every process derives the same keys from the same ids
   and config); the store directory is the ground truth of which units
   are done.  These listings are for progress reporting, tests and
   tooling — never for correctness decisions. *)

type unit_info = {
  u_path : string;
  u_experiment : string;
  u_digest : string;
  u_stripe : int;
}

(* "<experiment>-<digest:32>.stripe<NNN>.part"; [sanitize] means the
   experiment stem cannot itself contain a '.'. *)
let parse_unit_name root name =
  if not (Filename.check_suffix name ".part") then None
  else begin
    let stem = Filename.chop_suffix name ".part" in
    match String.rindex_opt stem '.' with
    | None -> None
    | Some dot -> (
        let base = String.sub stem 0 dot in
        let tag = String.sub stem (dot + 1) (String.length stem - dot - 1) in
        let digest_len = 32 in
        if
          String.starts_with ~prefix:"stripe" tag
          && String.length base > digest_len + 1
          && base.[String.length base - digest_len - 1] = '-'
        then
          match int_of_string_opt (String.sub tag 6 (String.length tag - 6)) with
          | None -> None
          | Some stripe ->
              Some
                {
                  u_path = Filename.concat root name;
                  u_experiment =
                    String.sub base 0 (String.length base - digest_len - 1);
                  u_digest =
                    String.sub base (String.length base - digest_len) digest_len;
                  u_stripe = stripe;
                }
        else None)
  end

let readdir_sorted root =
  match Sys.readdir root with
  | names ->
      Array.sort compare names;
      Array.to_list names
  | exception Sys_error _ -> []

let units t = List.filter_map (parse_unit_name t.root) (readdir_sorted t.root)

(* [all:true] is for the parent after every worker has been reaped via
   waitpid: any surviving claim's owner is dead by construction. *)
let reap_claims ?(all = false) t =
  let now = Unix.gettimeofday () in
  readdir_sorted t.root
  |> List.filter (fun name -> Filename.check_suffix name ".claim")
  |> List.fold_left
       (fun n name ->
         let path = Filename.concat t.root name in
         if all || Claim.stale ~now path then begin
           Atomic_file.remove path;
           bump reaped m_reaped;
           n + 1
         end
         else n)
       0

(* -- entry points --------------------------------------------------------------

   One driver and one unit format under every entry point:
   [compute ~stripe ~first ~len] returns a stripe's rows, [width]
   floats per replicate, for each stripe of [Evaluation.map_stripes].
   With a store each stripe is one unit of hex-float rows under the
   [kind]-tagged key.  A payload loads only as exactly the stripe's
   rows, each passing [row_ok], so a unit of the wrong shape counts as
   invalidated and is recomputed.  A unit another worker holds reads
   as rows of zeros. *)

let rows_format = "ckpt-vectors/1"

let encode_rows rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d\n" rows_format (Array.length rows) (Array.length rows.(0)));
  Array.iter
    (fun row ->
      Buffer.add_string buf (String.concat " " (Array.to_list (Array.map hex row)));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let decode_rows ~width ~row_ok ~len payload =
  let parse line =
    let cells = List.filter (( <> ) "") (String.split_on_char ' ' line) in
    let row = Array.of_list (List.filter_map float_of_string_opt cells) in
    if List.length cells = width && Array.length row = width && row_ok row then Some row else None
  in
  match List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' payload) with
  | hd :: lines when hd = Printf.sprintf "%s %d %d" rows_format len width ->
      let rows = Array.of_list (List.filter_map parse lines) in
      if Array.length rows = len && List.length lines = len then Some rows else None
  | _ -> None

let map_units ?store ~kind ~experiment ~scenario ~policy_names ~replicates ~params ~width
    ~row_ok compute =
  let key =
    Option.map
      (fun store ->
        let fields = fingerprint ~kind ~experiment ~scenario ~policy_names ~replicates ~params in
        (store, fields, digest_of fields))
      store
  in
  Evaluation.map_stripes ~label:experiment ~replicates (fun ~stripe ~first ~len ->
      let compute () = compute ~stripe ~first ~len in
      match key with
      | None -> compute ()
      | Some (store, fields, digest) -> (
          let path = unit_path store ~experiment ~digest ~stripe in
          match
            load_or_compute_opt ~path ~digest ~stripe ~fields
              ~decode:(decode_rows ~width ~row_ok ~len) ~encode:encode_rows compute
          with
          | Some rows -> rows
          | None -> Array.init len (fun _ -> Array.make width 0.)))

let degradation_table ?store ?(params = []) ~experiment ~scenario ~policies ~replicates () =
  let policy_names = List.map (fun p -> p.Policy.name) policies in
  let n = List.length policies in
  map_units ?store ~kind:"table" ~experiment ~scenario ~policy_names ~replicates ~params
    ~width:(Evaluation.table_row_width ~policies:n)
    ~row_ok:(Evaluation.table_row_ok ~policies:n)
    (fun ~stripe:_ ~first ~len -> Evaluation.table_rows ~scenario ~policies ~first ~len)
  |> Array.to_list
  |> List.map (Evaluation.partial_of_rows ~policy_names:(Array.of_list policy_names))
  |> Evaluation.table_of_partials

let vectors ?store ?(params = []) ~experiment ~scenario ~replicates ~width ~f () =
  if width <= 0 then invalid_arg "Sweep_store.vectors: width must be positive";
  map_units ?store ~kind:"vectors" ~experiment ~scenario ~policy_names:[] ~replicates
    ~params:(("width", string_of_int width) :: params)
    ~width ~row_ok:(fun _ -> true)
    (fun ~stripe:_ ~first ~len ->
      let rows = f ~first ~len in
      if Array.length rows <> len || Array.exists (fun row -> Array.length row <> width) rows
      then invalid_arg "Sweep_store.vectors: f must return len rows of the given width";
      rows)
  |> Array.to_list |> Array.concat
