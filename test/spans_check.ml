(* Check a wall-clock span export (the CKPT_SPANS_OUT file): it must
   parse with the project's Json and hold spans of every layer named
   on the command line.  Exits 1 otherwise.

     dune exec test/spans_check.exe -- spans.json parallel.sched simulator.stripe *)

module Json = Ckpt_telemetry.Json

let () =
  match Array.to_list Sys.argv with
  | _ :: path :: layers -> (
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Error e ->
          Printf.eprintf "%s: not valid JSON: %s\n" path e;
          exit 1
      | Ok j ->
          let events =
            Option.value ~default:[] (Option.bind (Json.member j "traceEvents") Json.to_list)
          in
          let cats =
            List.filter_map (fun ev -> Option.bind (Json.member ev "cat") Json.to_string_opt) events
          in
          match List.filter (fun l -> not (List.mem l cats)) layers with
          | [] ->
              Printf.printf "%s: %d events, spans of %s present\n" path (List.length events)
                (String.concat ", " layers)
          | missing ->
              Printf.eprintf "%s: no spans of %s\n" path (String.concat ", " missing);
              exit 1)
  | _ ->
      prerr_endline "usage: spans_check FILE LAYER...";
      exit 2
