(* Live exposition of the metrics registry.

   Two outputs, sharing one sampling path:

   - an OpenMetrics/Prometheus textfile, atomically replaced on every
     sample via [Ckpt_store.Atomic_file] so a scraper (node_exporter's
     textfile collector, or a human with cat) never sees a torn file;
   - a JSONL time-series, one snapshot object appended per sample, for
     after-the-fact trajectory plots of a long sweep.

   Off by default.  CKPT_METRICS_INTERVAL=<seconds> starts a sampler
   thread (and implies CKPT_METRICS=1 and span recording — asking for
   periodic samples of a disabled registry would be useless);
   CKPT_METRICS_OUT names the textfile (default "metrics.prom"; the
   JSONL series goes to the same path + ".jsonl").  CKPT_METRICS_OUT
   without an interval publishes one final snapshot at exit.

   The sampler is a [Thread] rather than a [Domain]: it spends its
   life in [Thread.delay] and brief registry reads, so it must not
   occupy one of the few cores the worker domains are sized to. *)

module Atomic_file = Ckpt_store.Atomic_file

(* -- OpenMetrics rendering -------------------------------------------------- *)

(* Metric names like "sched/regions" become "ckpt_sched_regions":
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

(* Histograms hold seconds; give them the unit suffix unless the
   registry name already carries it. *)
let with_seconds name =
  let suffix = "_seconds" in
  let l = String.length name and ls = String.length suffix in
  if l >= ls && String.sub name (l - ls) ls = suffix then name else name ^ suffix

let float_str v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let quantiles = [ 0.5; 0.9; 0.99 ]

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
          end
      | Metrics.Histogram h ->
          let m = sanitize (with_seconds name) in
          line "# TYPE %s summary" m;
          if h.Metrics.count > 0 then
            List.iter
              (fun q ->
                line "%s{quantile=\"%g\"} %s" m q (float_str (Metrics.histogram_quantile h q)))
              quantiles;
          line "%s_sum %s" m (float_str h.Metrics.sum);
          line "%s_count %d" m h.Metrics.count)
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

(* -- JSONL time-series ------------------------------------------------------ *)

let json_of_value = function
  | Metrics.Counter n -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Num (float_of_int n)) ]
  | Metrics.Gauge v -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Num v) ]
  | Metrics.Histogram h ->
      Json.Obj
        ([
           ("type", Json.Str "histogram");
           ("count", Json.Num (float_of_int h.Metrics.count));
           ("sum", Json.Num h.Metrics.sum);
         ]
        @
        if h.Metrics.count = 0 then []
        else
          [
            ("min", Json.Num h.Metrics.min_v);
            ("max", Json.Num h.Metrics.max_v);
            ("p50", Json.Num (Metrics.histogram_quantile h 0.5));
            ("p90", Json.Num (Metrics.histogram_quantile h 0.9));
            ("p99", Json.Num (Metrics.histogram_quantile h 0.99));
          ])

let json_of_span (t : Span.total) =
  Json.Obj
    [
      ("layer", Json.Str t.layer);
      ("name", Json.Str t.name);
      ("seconds", Json.Num t.seconds);
      ("count", Json.Num (float_of_int t.count));
    ]

let jsonl_sample ?(spans = []) ~ts snap =
  Json.to_string
    (Json.Obj
       [
         ("ts", Json.Num ts);
         ("metrics", Json.Obj (List.map (fun (name, v) -> (name, json_of_value v)) snap));
         ("spans", Json.Arr (List.map json_of_span spans));
       ])

(* -- publication ------------------------------------------------------------ *)

let out_path () =
  match Sys.getenv_opt "CKPT_METRICS_OUT" with
  | Some p when p <> "" -> p
  | _ -> "metrics.prom"

let series_path () = out_path () ^ ".jsonl"

let interval () =
  Provenance.env_float "CKPT_METRICS_INTERVAL" ~want:"a positive number of seconds"
    ~valid:(fun dt -> dt > 0. && Float.is_finite dt)

(* Serialize concurrent publishers (the sampler thread and the at_exit
   final flush can overlap). *)
let publish_lock = Mutex.create ()

let publish () =
  try
    let snap = Metrics.snapshot () in
    let spans = Span.merge (Span.tracks ()) in
    let ts = Unix.gettimeofday () in
    Mutex.lock publish_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock publish_lock)
      (fun () ->
        (* The textfile is replaced atomically; the series is a plain
           append (one line per sample — a crash can at worst truncate
           the final line, which readers skip). *)
        Atomic_file.write ~fsync:false ~path:(out_path ()) (openmetrics ~spans snap);
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (series_path ()) in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (jsonl_sample ~spans ~ts snap);
            output_char oc '\n'))
  with exn ->
    (* The sampler must never take the process down. *)
    Printf.eprintf "[metrics] publish failed: %s\n%!" (Printexc.to_string exn)

(* -- sampler lifecycle ------------------------------------------------------ *)

let started = Atomic.make false
let stop_requested = Atomic.make false

let sampler_loop dt =
  while not (Atomic.get stop_requested) do
    Thread.delay dt;
    if not (Atomic.get stop_requested) then publish ()
  done

let ensure_sampler () =
  if not (Atomic.exchange started true) then begin
    match interval () with
    | Some dt ->
        Metrics.set_enabled true;
        Span.set_enabled true;
        at_exit (fun () ->
            Atomic.set stop_requested true;
            publish ());
        ignore (Thread.create sampler_loop dt)
    | None ->
        (* No periodic sampling, but an explicit output request still
           gets a final snapshot at exit. *)
        if Sys.getenv_opt "CKPT_METRICS_OUT" <> None then begin
          Metrics.set_enabled true;
          Span.set_enabled true;
          at_exit publish
        end
  end

let stop () = Atomic.set stop_requested true
