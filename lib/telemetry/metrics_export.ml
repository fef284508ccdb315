(* OpenMetrics exposition of the metrics registry.

   Off by default.  CKPT_METRICS_OUT=<path> publishes one final
   snapshot of the registry and the span totals at exit, as an
   OpenMetrics/Prometheus textfile written atomically via
   [Ckpt_store.Atomic_file], so a scraper (node_exporter's textfile
   collector, or a human with cat) never sees a torn file. *)

module Atomic_file = Ckpt_store.Atomic_file

(* -- OpenMetrics rendering -------------------------------------------------- *)

(* Metric names like "sweep/claims_won" become "ckpt_sweep_claims_won":
   [a-zA-Z0-9_] only, with a namespace prefix. *)
let sanitize name =
  let buf = Buffer.create (String.length name + 5) in
  Buffer.add_string buf "ckpt_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let float_str v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let openmetrics ?(spans = []) snap =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter n ->
          let m = sanitize name in
          line "# TYPE %s counter" m;
          line "%s_total %d" m n
      | Metrics.Gauge v ->
          if not (Float.is_nan v) then begin
            let m = sanitize name in
            line "# TYPE %s gauge" m;
            line "%s %s" m (float_str v)
          end)
    snap;
  (* Span totals: one quantile-less summary family, labelled by layer
     and name.  [String.escaped] agrees with OpenMetrics on the escapes
     it defines (backslash, double quote, newline). *)
  if spans <> [] then begin
    line "# TYPE ckpt_span_seconds summary";
    List.iter
      (fun (t : Span.total) ->
        let labels =
          Printf.sprintf "{layer=\"%s\",name=\"%s\"}" (String.escaped t.layer)
            (String.escaped t.name)
        in
        line "ckpt_span_seconds_sum%s %s" labels (float_str t.seconds);
        line "ckpt_span_seconds_count%s %d" labels t.count)
      spans
  end;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* -- publication ------------------------------------------------------------ *)

let publish path =
  try
    Atomic_file.write ~fsync:false ~path
      (openmetrics ~spans:(Span.merge (Span.tracks ())) (Metrics.snapshot ()))
  with exn ->
    (* Runs at exit: report, never take the process down. *)
    Printf.eprintf "[metrics] publish failed: %s\n%!" (Printexc.to_string exn)

let armed = Atomic.make false

let ensure_at_exit () =
  match Provenance.env_path "CKPT_METRICS_OUT" with
  | Some path when not (Atomic.exchange armed true) ->
      Metrics.set_enabled true;
      Span.set_enabled true;
      at_exit (fun () -> publish path)
  | _ -> ()
