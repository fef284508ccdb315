type t = { replicates : int; full : bool; seed : int64; sweep_dir : string option }

let env_int = Ckpt_telemetry.Provenance.env_int

let default () =
  let full = match Sys.getenv_opt "CKPT_FULL" with Some ("1" | "true") -> true | _ -> false in
  let replicates =
    (* 0 is the documented spelling of "the default". *)
    match
      env_int "CKPT_TRACES" ~want:"an integer >= 0" ~valid:(fun n -> n >= 0)
    with
    | Some n when n > 0 -> n
    | Some _ | None -> if full then 600 else 0
  in
  let seed =
    match env_int "CKPT_SEED" ~want:"an integer" ~valid:(fun _ -> true) with
    | Some s -> Int64.of_int s
    | None -> 0x5EEDL
  in
  { replicates; full; seed; sweep_dir = None }

let quick = { replicates = 4; full = false; seed = 0x5EEDL; sweep_dir = None }

let scale t ~quick ~full =
  if t.replicates > 0 then t.replicates else if t.full then full else quick
