(* Provenance manifests: enough context to regenerate any number we
   write to disk.

   Every CSV/JSON artifact gains a sidecar "<path>.meta.json"
   recording the git revision, the exact command line, every CKPT_*
   environment knob, the domain count and caller-supplied parameters
   (scenario, seeds).  The sidecar is written unconditionally — it
   costs one stat and a few hundred bytes, and reproducibility is not
   an opt-in property. *)

(* The git revision is a process-constant: one subprocess per process,
   on first use.  Memoized behind a mutex rather than [lazy]: sidecars
   are written from inside parallel regions (sweep-store units), and
   concurrently forcing a lazy from several domains raises
   [CamlinternalLazy.Undefined]. *)
let git_lock = Mutex.create ()
let git_memo = ref None

let git_describe () =
  Mutex.lock git_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock git_lock)
    (fun () ->
      match !git_memo with
      | Some rev -> rev
      | None ->
          let rev =
            try
              let ic = Unix.open_process_in "git describe --always --dirty --tags 2>/dev/null" in
              let line = try input_line ic with End_of_file -> "" in
              match Unix.close_process_in ic with
              | Unix.WEXITED 0 when line <> "" -> line
              | _ -> "unknown"
            with _ -> "unknown"
          in
          git_memo := Some rev;
          rev)

let ckpt_environment () =
  Unix.environment () |> Array.to_list
  |> List.filter_map (fun binding ->
         match String.index_opt binding '=' with
         | Some i when String.length binding >= 5 && String.sub binding 0 5 = "CKPT_" ->
             Some (String.sub binding 0 i, String.sub binding (i + 1) (String.length binding - i - 1))
         | _ -> None)
  |> List.sort compare

(* -- knob readers -------------------------------------------------------------

   A malformed CKPT_* value falls back to the knob's default, but never
   silently: the sidecar records the raw value, so running with the
   default unannounced would publish an artifact claiming a setting it
   was not computed with.  Each distinct (knob, value) pair warns once —
   readers such as CKPT_DOMAINS run on every fan-out. *)

let warned = Hashtbl.create 8
let warned_lock = Mutex.create ()

let warn_malformed name raw ~want =
  Mutex.protect warned_lock (fun () ->
      if not (Hashtbl.mem warned (name, raw)) then begin
        Hashtbl.add warned (name, raw) ();
        Printf.eprintf "ckpt: ignoring malformed %s=%S (want %s; using the default)\n%!" name raw
          want
      end)

let env_number parse name ~want ~valid =
  match Sys.getenv_opt name with
  | None -> None
  | Some raw when String.trim raw = "" -> None
  | Some raw -> (
      match parse (String.trim raw) with
      | Some v when valid v -> Some v
      | Some _ | None ->
          warn_malformed name raw ~want;
          None)

let env_int = env_number int_of_string_opt
let env_float = env_number float_of_string_opt

let domain_count () =
  Option.value
    (env_int "CKPT_DOMAINS" ~want:"an integer >= 1" ~valid:(fun n -> n >= 1))
    ~default:(Domain.recommended_domain_count ())

let quote s = Printf.sprintf "\"%s\"" (Json.escape s)

let manifest ?(extra = []) () =
  let buf = Buffer.create 512 in
  let field ?(last = false) k v =
    Buffer.add_string buf (Printf.sprintf "  %s: %s%s\n" (quote k) v (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  field "schema" (quote "ckpt-provenance/1");
  field "generated_at_unix" (Printf.sprintf "%.0f" (Unix.time ()));
  field "git" (quote (git_describe ()));
  field "command" (quote (String.concat " " (Array.to_list Sys.argv)));
  field "ocaml" (quote Sys.ocaml_version);
  field "domains" (string_of_int (domain_count ()));
  field "env"
    (Printf.sprintf "{%s}"
       (String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (quote k) (quote v))
             (ckpt_environment ()))));
  field ~last:true "parameters"
    (Printf.sprintf "{%s}"
       (String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (quote k) (quote v)) extra)));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let sidecar_path path = path ^ ".meta.json"

let write_sidecar ?extra ~path () =
  (* Atomic, so a sidecar is never seen half-written next to a
     complete artifact; still best-effort — a sidecar must never turn
     a successful run into a failed one. *)
  try Ckpt_store.Atomic_file.write ~path:(sidecar_path path) (manifest ?extra ())
  with Sys_error _ | Unix.Unix_error _ -> ()
