type t = { replicates : int; full : bool; seed : int64; sweep_dir : string option }

let warned_traces = Atomic.make ""
let warned_seed = Atomic.make ""

(* [name] as an integer accepted by [valid]; unset or empty is [None].
   A malformed value also falls back to [None], but with a warning
   (once per distinct value, in the form CKPT_DOMAINS uses): the
   provenance sidecar records the typed value, so silently running with
   the default would publish a CSV claiming a seed or trace count it
   was not computed with. *)
let getenv_int name ~cell ~want ~valid =
  match Sys.getenv_opt name with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when valid n -> Some n
      | Some _ | None ->
          if Atomic.get cell <> s then begin
            Atomic.set cell s;
            Printf.eprintf "ckpt: ignoring malformed %s=%S (want %s; using the default)\n%!"
              name s want
          end;
          None)

let default () =
  let full = match Sys.getenv_opt "CKPT_FULL" with Some ("1" | "true") -> true | _ -> false in
  let replicates =
    (* 0 is the documented spelling of "the default". *)
    match
      getenv_int "CKPT_TRACES" ~cell:warned_traces ~want:"an integer >= 0" ~valid:(fun n ->
          n >= 0)
    with
    | Some n when n > 0 -> n
    | Some _ | None -> if full then 600 else 0
  in
  let seed =
    match getenv_int "CKPT_SEED" ~cell:warned_seed ~want:"an integer" ~valid:(fun _ -> true) with
    | Some s -> Int64.of_int s
    | None -> 0x5EEDL
  in
  let sweep_dir =
    match Sys.getenv_opt "CKPT_SWEEP_DIR" with
    | Some d when String.trim d <> "" -> Some (String.trim d)
    | Some _ | None -> None
  in
  { replicates; full; seed; sweep_dir }

let quick = { replicates = 4; full = false; seed = 0x5EEDL; sweep_dir = None }

let scale t ~quick ~full =
  if t.replicates > 0 then t.replicates else if t.full then full else quick
