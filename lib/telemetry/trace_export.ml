(* Serialize traced executions.

   Two formats, chosen by file extension:

   - "*.jsonl": one JSON object per event per line, prefixed by the
     buffer (execution) name — easy to grep and to post-process.
   - anything else: Chrome trace_event JSON ({"traceEvents": [...]}),
     loadable in chrome://tracing / Perfetto.  Each execution becomes
     one named thread; spans are complete ("X") events and point
     events are instants ("i").  Timestamps are simulated seconds
     exported as microseconds (the trace_event unit). *)

(* JSON numbers: finite floats only ("%.17g" round-trips doubles but
   is noisy; %g at 12 significant digits is exact at the microsecond
   over any simulated horizon we produce). *)
let num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let micros v = num (v *. 1e6)

(* -- JSONL ---------------------------------------------------------------- *)

let event_fields = function
  | Tracer.Decision { at; chunk; remaining } ->
      ("decision", [ ("at", num at); ("chunk", num chunk); ("remaining", num remaining) ])
  | Tracer.Chunk_start { at; work } -> ("chunk-start", [ ("at", num at); ("work", num work) ])
  | Tracer.Chunk_commit { t0; t1; work } ->
      ("chunk-commit", [ ("t0", num t0); ("t1", num t1); ("work", num work) ])
  | Tracer.Checkpoint { t0; t1; cost } ->
      ("checkpoint", [ ("t0", num t0); ("t1", num t1); ("cost", num cost) ])
  | Tracer.Failure { at; proc } -> ("failure", [ ("at", num at); ("proc", string_of_int proc) ])
  | Tracer.Waste { t0; t1 } -> ("waste", [ ("t0", num t0); ("t1", num t1) ])
  | Tracer.Downtime { t0; t1 } -> ("downtime", [ ("t0", num t0); ("t1", num t1) ])
  | Tracer.Recovery_start { at } -> ("recovery-start", [ ("at", num at) ])
  | Tracer.Recovery_abort { t0; t1 } -> ("recovery-abort", [ ("t0", num t0); ("t1", num t1) ])
  | Tracer.Recovery_complete { t0; t1; cost } ->
      ("recovery-complete", [ ("t0", num t0); ("t1", num t1); ("cost", num cost) ])

let jsonl_line ~buffer_name e =
  let kind, fields = event_fields e in
  let fields = ("run", Printf.sprintf "%S" (Json.escape buffer_name)) :: fields in
  Printf.sprintf "{\"event\":\"%s\",%s}" kind
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) fields))

let write_jsonl oc buffers =
  List.iter
    (fun b ->
      List.iter
        (fun e ->
          output_string oc (jsonl_line ~buffer_name:(Tracer.name b) e);
          output_char oc '\n')
        (Tracer.to_list b))
    buffers

(* -- Chrome trace_event --------------------------------------------------- *)

let span_json ~tid ~name ~t0 ~t1 ~args =
  Printf.sprintf "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s%s}" name
    tid (micros t0)
    (micros (t1 -. t0))
    (if args = "" then "" else Printf.sprintf ",\"args\":{%s}" args)

let instant_json ~tid ~name ~at ~args =
  Printf.sprintf "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%s%s}"
    name tid (micros at)
    (if args = "" then "" else Printf.sprintf ",\"args\":{%s}" args)

let chrome_event ~tid = function
  | Tracer.Decision { at; chunk; remaining } ->
      instant_json ~tid ~name:"decision" ~at
        ~args:(Printf.sprintf "\"chunk_s\":%s,\"remaining_s\":%s" (num chunk) (num remaining))
  | Tracer.Chunk_start { at; work } ->
      instant_json ~tid ~name:"chunk-start" ~at ~args:(Printf.sprintf "\"work_s\":%s" (num work))
  | Tracer.Chunk_commit { t0; t1; work } ->
      span_json ~tid ~name:"work" ~t0 ~t1 ~args:(Printf.sprintf "\"work_s\":%s" (num work))
  | Tracer.Checkpoint { t0; t1; _ } -> span_json ~tid ~name:"checkpoint" ~t0 ~t1 ~args:""
  | Tracer.Failure { at; proc } ->
      instant_json ~tid ~name:"failure" ~at ~args:(Printf.sprintf "\"proc\":%d" proc)
  | Tracer.Waste { t0; t1 } -> span_json ~tid ~name:"waste" ~t0 ~t1 ~args:""
  | Tracer.Downtime { t0; t1 } -> span_json ~tid ~name:"downtime" ~t0 ~t1 ~args:""
  | Tracer.Recovery_start { at } -> instant_json ~tid ~name:"recovery-start" ~at ~args:""
  | Tracer.Recovery_abort { t0; t1 } -> span_json ~tid ~name:"recovery-abort" ~t0 ~t1 ~args:""
  | Tracer.Recovery_complete { t0; t1; _ } -> span_json ~tid ~name:"recovery" ~t0 ~t1 ~args:""

let write_chrome oc buffers =
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else output_string oc ",\n";
    output_string oc line
  in
  List.iteri
    (fun tid b ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           tid
           (Json.escape (Tracer.name b)));
      List.iter (fun e -> emit (chrome_event ~tid e)) (Tracer.to_list b))
    buffers;
  output_string oc "\n]}\n"

(* -- entry points --------------------------------------------------------- *)

let is_jsonl path = Filename.check_suffix path ".jsonl"

let write ~path buffers =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> if is_jsonl path then write_jsonl oc buffers else write_chrome oc buffers)

(* End-of-process export of everything the sink accumulated.  The hook
   is installed at most once, on the first registration-producing code
   path that calls [ensure_at_exit] (the evaluation harness), and only
   fires when an output path is configured and buffers exist. *)
let at_exit_installed = Atomic.make false

let write_registered () =
  match Tracer.out_path () with
  | None -> ()
  | Some path ->
      let buffers, rejected = Tracer.drain () in
      if buffers <> [] then begin
        write ~path buffers;
        Printf.eprintf "[trace] wrote %d execution trace(s) to %s%s\n%!" (List.length buffers)
          path
          (if rejected > 0 then
             Printf.sprintf " (%d more runs traced but not kept; raise CKPT_TRACE_BUFFERS)"
               rejected
           else "")
      end

let ensure_at_exit () =
  if not (Atomic.exchange at_exit_installed true) then at_exit write_registered
