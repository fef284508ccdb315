(* Check a trace export: it must parse with the project's Json, hold at
   least one event, and hold events of every name given on the command
   line.  A Chrome trace_event file (the CKPT_SPANS_OUT export, or
   `ckpt explain -o f.json`) names its events by category; a JSONL file
   (`ckpt explain -o f.jsonl`) holds one JSON object per line, named by
   its "event" field.  Exits 1 otherwise.

     dune exec test/spans_check.exe -- spans.json parallel.sched simulator.stripe
     dune exec test/spans_check.exe -- trace.jsonl chunk-commit checkpoint *)

module Json = Ckpt_telemetry.Json

let parse path text =
  match Json.parse text with
  | Ok j -> j
  | Error e ->
      Printf.eprintf "%s: not valid JSON: %s\n" path e;
      exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: path :: names -> (
      let body = In_channel.with_open_bin path In_channel.input_all in
      let events, key =
        if Filename.check_suffix path ".jsonl" then
          ( List.map (parse path) (List.filter (( <> ) "") (String.split_on_char '\n' body)),
            "event" )
        else
          ( Option.value ~default:[]
              (Option.bind (Json.member (parse path body) "traceEvents") Json.to_list),
            "cat" )
      in
      if events = [] then begin
        Printf.eprintf "%s: no events\n" path;
        exit 1
      end;
      let present =
        List.filter_map (fun ev -> Option.bind (Json.member ev key) Json.to_string_opt) events
      in
      match List.filter (fun n -> not (List.mem n present)) names with
      | [] ->
          Printf.printf "%s: %d events, %s present\n" path (List.length events)
            (String.concat ", " names)
      | missing ->
          Printf.eprintf "%s: no events of %s\n" path (String.concat ", " missing);
          exit 1)
  | _ ->
      prerr_endline "usage: spans_check FILE NAME...";
      exit 2
