(* Telemetry subsystem: metrics registry semantics, histogram merging,
   wall-clock spans, trace ring buffers, export formats and provenance
   sidecars. *)

module Metrics = Ckpt_telemetry.Metrics
module Tracer = Ckpt_telemetry.Tracer
module Trace_export = Ckpt_telemetry.Trace_export
module Provenance = Ckpt_telemetry.Provenance
module Span = Ckpt_telemetry.Span
module Domain_pool = Ckpt_parallel.Domain_pool
module Json = Ckpt_telemetry.Json
module Metrics_export = Ckpt_telemetry.Metrics_export

let check = Alcotest.check
let close ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

(* Fresh tracks with recording on; the calling domain records on a
   track of its own. *)
let with_spans f =
  let was = Span.enabled () in
  Span.reset ();
  Span.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Span.set_enabled was;
      Span.reset ())

let span_total ?since ~layer name =
  List.find_opt
    (fun (t : Span.total) -> t.layer = layer && t.name = name)
    (Span.merge (Span.tracks ?since ()))

(* -- metrics registry ------------------------------------------------------- *)

let test_metrics_kinds () =
  with_metrics (fun () ->
      let c = Metrics.counter "test/kinds_counter" in
      Metrics.incr c;
      Metrics.add c 4;
      (match Metrics.find "test/kinds_counter" with
      | Some (Metrics.Counter 5) -> ()
      | v -> Alcotest.failf "counter: unexpected %a" (Fmt.option Metrics.pp_value) v);
      let g = Metrics.gauge "test/kinds_gauge" in
      Metrics.set g 2.5;
      Metrics.set g 7.25;
      (match Metrics.find "test/kinds_gauge" with
      | Some (Metrics.Gauge 7.25) -> ()
      | v -> Alcotest.failf "gauge: unexpected %a" (Fmt.option Metrics.pp_value) v);
      let h = Metrics.histogram "test/kinds_hist" in
      Metrics.observe h 1.0;
      Metrics.observe h 4.0;
      match Metrics.find "test/kinds_hist" with
      | Some (Metrics.Histogram s) ->
          check Alcotest.int "hist count" 2 s.Metrics.count;
          close "hist sum" 5.0 s.Metrics.sum;
          close "hist min" 1.0 s.Metrics.min_v;
          close "hist max" 4.0 s.Metrics.max_v
      | v -> Alcotest.failf "histogram: unexpected %a" (Fmt.option Metrics.pp_value) v)

let test_metrics_kind_mismatch () =
  with_metrics (fun () ->
      ignore (Metrics.counter "test/mismatch");
      check Alcotest.bool "re-registering same kind is fine" true
        (ignore (Metrics.counter "test/mismatch");
         true);
      match Metrics.gauge "test/mismatch" with
      | _ -> Alcotest.fail "kind mismatch must raise"
      | exception Invalid_argument _ -> ())

let test_metrics_gating () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test/gated_counter" in
  let h = Metrics.histogram "test/gated_hist" in
  Metrics.reset ~prefix:"test/gated" ();
  Metrics.incr c;
  Metrics.observe h 3.0;
  (match Metrics.find "test/gated_counter" with
  | Some (Metrics.Counter 0) -> ()
  | _ -> Alcotest.fail "disabled counter must not move");
  match Metrics.find "test/gated_hist" with
  | Some (Metrics.Histogram s) -> check Alcotest.int "disabled hist empty" 0 s.Metrics.count
  | _ -> Alcotest.fail "histogram registered"

let test_metrics_reset_prefix () =
  with_metrics (fun () ->
      let a = Metrics.counter "resetme/a" in
      let b = Metrics.counter "keepme/b" in
      Metrics.incr a;
      Metrics.incr b;
      Metrics.reset ~prefix:"resetme/" ();
      (match Metrics.find "resetme/a" with
      | Some (Metrics.Counter 0) -> ()
      | _ -> Alcotest.fail "prefixed metric reset");
      match Metrics.find "keepme/b" with
      | Some (Metrics.Counter 1) -> ()
      | _ -> Alcotest.fail "other metric untouched")

let test_metrics_snapshot_sorted () =
  with_metrics (fun () ->
      Metrics.incr (Metrics.counter "zz/last");
      Metrics.incr (Metrics.counter "aa/first");
      let names = List.map fst (Metrics.snapshot ()) in
      check Alcotest.bool "snapshot sorted by name" true
        (List.sort compare names = names);
      check Alcotest.bool "snapshot non-empty" true (names <> []))

(* -- histogram algebra ------------------------------------------------------ *)

let snapshot_of values =
  with_metrics (fun () ->
      let h = Metrics.histogram "test/tmp_hist_build" in
      Metrics.reset ~prefix:"test/tmp_hist_build" ();
      List.iter (Metrics.observe h) values;
      match Metrics.find "test/tmp_hist_build" with
      | Some (Metrics.Histogram s) -> s
      | _ -> Alcotest.fail "histogram snapshot")

let test_histogram_merge () =
  let xs = [ 0.001; 0.01; 0.1; 1.0 ] and ys = [ 2.0; 4.0; 64.0 ] in
  let merged = Metrics.merge_histograms (snapshot_of xs) (snapshot_of ys) in
  let direct = snapshot_of (xs @ ys) in
  check Alcotest.int "merged count" direct.Metrics.count merged.Metrics.count;
  close "merged sum" direct.Metrics.sum merged.Metrics.sum;
  close "merged min" direct.Metrics.min_v merged.Metrics.min_v;
  close "merged max" direct.Metrics.max_v merged.Metrics.max_v;
  check Alcotest.bool "merged buckets" true (merged.Metrics.buckets = direct.Metrics.buckets);
  (* Commutativity and the identity element. *)
  let swapped = Metrics.merge_histograms (snapshot_of ys) (snapshot_of xs) in
  check Alcotest.bool "commutative" true (swapped = merged);
  let with_empty = Metrics.merge_histograms direct Metrics.empty_histogram in
  check Alcotest.bool "empty is identity" true (with_empty = direct)

let test_histogram_moments () =
  let s = snapshot_of [ 1.0; 2.0; 3.0; 10.0 ] in
  close "mean" 4.0 (Metrics.histogram_mean s);
  let q0 = Metrics.histogram_quantile s 0.0 and q1 = Metrics.histogram_quantile s 1.0 in
  check Alcotest.bool "quantiles bracket the data" true (q0 <= q1);
  check Alcotest.bool "median within range" true
    (let m = Metrics.histogram_quantile s 0.5 in
     m >= s.Metrics.min_v /. 2. && m <= s.Metrics.max_v *. 2.);
  check Alcotest.bool "bucket_lower monotone" true
    (Metrics.bucket_lower 10 < Metrics.bucket_lower 11)

(* -- trace ring buffers ----------------------------------------------------- *)

let span t0 t1 = Tracer.Chunk_commit { t0; t1; work = t1 -. t0 }

let test_buffer_wraparound () =
  let buf = Tracer.create_buffer ~capacity:4 ~name:"wrap" () in
  for i = 0 to 9 do
    Tracer.emit buf (span (float_of_int i) (float_of_int i +. 1.))
  done;
  check Alcotest.int "length capped" 4 (Tracer.length buf);
  check Alcotest.int "dropped counts overwrites" 6 (Tracer.dropped buf);
  let surviving = Tracer.to_list buf in
  check Alcotest.int "to_list length" 4 (List.length surviving);
  (* Oldest surviving first: events 6, 7, 8, 9. *)
  List.iteri
    (fun i ev ->
      match ev with
      | Tracer.Chunk_commit { t0; _ } -> close "chronological" (float_of_int (6 + i)) t0
      | _ -> Alcotest.fail "unexpected event")
    surviving;
  Tracer.clear buf;
  check Alcotest.int "clear empties" 0 (Tracer.length buf)

let test_buffer_totals () =
  let buf = Tracer.create_buffer ~capacity:64 ~name:"totals" () in
  Tracer.emit buf (Tracer.Decision { at = 0.; chunk = 10.; remaining = 30. });
  Tracer.emit buf (Tracer.Chunk_start { at = 0.; work = 10. });
  Tracer.emit buf (Tracer.Chunk_commit { t0 = 0.; t1 = 10.; work = 10. });
  Tracer.emit buf (Tracer.Checkpoint { t0 = 10.; t1 = 13.; cost = 3. });
  Tracer.emit buf (Tracer.Failure { at = 15.; proc = 0 });
  Tracer.emit buf (Tracer.Waste { t0 = 13.; t1 = 15. });
  Tracer.emit buf (Tracer.Downtime { t0 = 15.; t1 = 16. });
  Tracer.emit buf (Tracer.Recovery_start { at = 16. });
  Tracer.emit buf (Tracer.Recovery_abort { t0 = 16.; t1 = 17. });
  Tracer.emit buf (Tracer.Recovery_complete { t0 = 18.; t1 = 20.; cost = 2. });
  let t = Tracer.totals buf in
  close "work" 10. t.Tracer.work;
  close "checkpoint" 3. t.Tracer.checkpoint;
  close "waste" 2. t.Tracer.waste;
  close "recovery (abort + complete)" 3. t.Tracer.recovery;
  close "downtime" 1. t.Tracer.downtime;
  check Alcotest.int "failures" 1 t.Tracer.failures;
  check Alcotest.int "chunks" 1 t.Tracer.chunks;
  check Alcotest.int "decisions" 1 t.Tracer.decisions

let test_sink_register_drain () =
  (* Leave the sink as we found it. *)
  let stale, _ = Tracer.drain () in
  List.iter Tracer.register stale;
  let a = Tracer.create_buffer ~capacity:8 ~name:"sink-a" () in
  let b = Tracer.create_buffer ~capacity:8 ~name:"sink-b" () in
  Tracer.register a;
  Tracer.register b;
  let drained, rejected = Tracer.drain () in
  let names = List.map Tracer.name drained in
  check Alcotest.bool "registration order preserved" true
    (List.filter (fun n -> n = "sink-a" || n = "sink-b") names = [ "sink-a"; "sink-b" ]);
  check Alcotest.int "nothing rejected" 0 rejected;
  let after, _ = Tracer.drain () in
  check Alcotest.int "drain empties the sink" 0 (List.length after)

(* -- export formats --------------------------------------------------------- *)

let test_jsonl_line () =
  let line =
    Trace_export.jsonl_line ~buffer_name:"rep0/Daly"
      (Tracer.Chunk_commit { t0 = 1.5; t1 = 2.5; work = 1.0 })
  in
  check Alcotest.bool "names the buffer" true (contains ~needle:"rep0/Daly" line);
  check Alcotest.bool "names the event" true (contains ~needle:"chunk-commit" line);
  check Alcotest.bool "single line" true (not (String.contains line '\n'))

let test_chrome_export () =
  let buf = Tracer.create_buffer ~capacity:16 ~name:"rep0/export-test" () in
  Tracer.emit buf (Tracer.Chunk_commit { t0 = 0.; t1 = 5.; work = 5. });
  Tracer.emit buf (Tracer.Failure { at = 5.; proc = 3 });
  let path = Filename.temp_file "ckpt_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_export.write ~path [ buf ];
      let body = read_file path in
      check Alcotest.bool "trace_event envelope" true (contains ~needle:"\"traceEvents\"" body);
      check Alcotest.bool "thread named after buffer" true
        (contains ~needle:"rep0/export-test" body);
      check Alcotest.bool "complete event" true (contains ~needle:"\"ph\":\"X\"" body);
      check Alcotest.bool "instant event for the failure" true
        (contains ~needle:"\"ph\":\"i\"" body))

let test_jsonl_export () =
  let buf = Tracer.create_buffer ~capacity:16 ~name:"rep1/lines" () in
  Tracer.emit buf (Tracer.Checkpoint { t0 = 0.; t1 = 1.; cost = 1. });
  Tracer.emit buf (Tracer.Downtime { t0 = 1.; t1 = 2. });
  let path = Filename.temp_file "ckpt_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_export.write ~path [ buf ];
      let body = read_file path in
      let lines = String.split_on_char '\n' (String.trim body) in
      check Alcotest.int "one line per event" 2 (List.length lines);
      List.iter
        (fun l ->
          check Alcotest.bool "line is an object" true
            (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines)

let test_json_escape () =
  check Alcotest.string "quotes and backslashes" "a\\\"b\\\\c"
    (Json.escape "a\"b\\c");
  check Alcotest.string "control characters" "tab\\there" (Json.escape "tab\there")

(* -- histogram algebra: properties ------------------------------------------ *)

let samples_gen = QCheck2.Gen.(list_size (int_range 1 40) (float_range 1e-6 1e6))

(* Exact equality on the discrete components (buckets, count, min,
   max); the float sum is only associative/commutative up to rounding. *)
let same_hist a b =
  a.Metrics.buckets = b.Metrics.buckets
  && a.Metrics.count = b.Metrics.count
  && a.Metrics.min_v = b.Metrics.min_v
  && a.Metrics.max_v = b.Metrics.max_v
  && Float.abs (a.Metrics.sum -. b.Metrics.sum) <= 1e-9 *. Float.max 1. (Float.abs a.Metrics.sum)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"merge_histograms is commutative" ~count:100
    QCheck2.Gen.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let a = snapshot_of xs and b = snapshot_of ys in
      same_hist (Metrics.merge_histograms a b) (Metrics.merge_histograms b a))

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge_histograms is associative" ~count:100
    QCheck2.Gen.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let a = snapshot_of xs and b = snapshot_of ys and c = snapshot_of zs in
      same_hist
        (Metrics.merge_histograms (Metrics.merge_histograms a b) c)
        (Metrics.merge_histograms a (Metrics.merge_histograms b c)))

let prop_quantile_monotone =
  QCheck2.Test.make ~name:"histogram_quantile monotone in q" ~count:100
    QCheck2.Gen.(triple samples_gen (float_range 0. 1.) (float_range 0. 1.))
    (fun (xs, qa, qb) ->
      let s = snapshot_of xs in
      let qlo = Float.min qa qb and qhi = Float.max qa qb in
      Metrics.histogram_quantile s qlo <= Metrics.histogram_quantile s qhi)

(* -- domain safety ----------------------------------------------------------- *)

let test_metrics_concurrent_increments () =
  with_spans @@ fun () ->
  with_metrics (fun () ->
      let c = Metrics.counter "stress/hits" in
      let h = Metrics.histogram "stress/h" in
      Metrics.reset ~prefix:"stress/" ();
      let domains = 4 and per = 10_000 in
      let worker () =
        for i = 1 to per do
          Metrics.incr c;
          (* Each domain records on its own track; the merge is exact. *)
          let t0 = float_of_int i in
          Span.record ~layer:"stress" "span" ~t0 ~t1:(t0 +. 1e-3);
          Metrics.observe h (float_of_int (1 + (i mod 7)))
        done
      in
      let ds = List.init domains (fun _ -> Domain.spawn worker) in
      List.iter Domain.join ds;
      (match Metrics.find "stress/hits" with
      | Some (Metrics.Counter n) -> check Alcotest.int "no lost counter increments" (domains * per) n
      | _ -> Alcotest.fail "counter registered");
      (match span_total ~layer:"stress" "span" with
      | Some t ->
          check Alcotest.int "one track per domain" domains (List.length (Span.tracks ()));
          check Alcotest.int "no lost spans" (domains * per) t.Span.count;
          close ~tol:1e-6 "span seconds exact" (float_of_int (domains * per) *. 1e-3) t.Span.seconds
      | None -> Alcotest.fail "spans recorded");
      match Metrics.find "stress/h" with
      | Some (Metrics.Histogram s) ->
          check Alcotest.int "no lost observations" (domains * per) s.Metrics.count;
          close "stress hist min" 1. s.Metrics.min_v;
          close "stress hist max" 7. s.Metrics.max_v
      | _ -> Alcotest.fail "histogram registered")

(* -- json -------------------------------------------------------------------- *)

let test_json_parse_roundtrip () =
  let src = {|{"a": 1.5, "b": [true, false, null, "x\ny"], "nested": {"k": -2e3}}|} in
  match Json.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      close "float member" 1.5 (Option.get (Option.bind (Json.member j "a") Json.to_float));
      close "nested member" (-2000.)
        (Option.get
           (Option.bind (Json.member j "nested") (fun n -> Option.bind (Json.member n "k") Json.to_float)));
      (match Option.bind (Json.member j "b") Json.to_list with
      | Some [ b1; b2; n; s ] ->
          check Alcotest.bool "true literal" true (b1 = Json.Bool true);
          check Alcotest.bool "false literal" true (b2 = Json.Bool false);
          check Alcotest.bool "null literal" true (n = Json.Null);
          check Alcotest.(option string) "escaped string" (Some "x\ny") (Json.to_string_opt s)
      | _ -> Alcotest.fail "array shape");
      check Alcotest.(list string) "keys in document order" [ "a"; "b"; "nested" ] (Json.keys j);
      check Alcotest.bool "serializer round-trips" true (Json.parse (Json.to_string j) = Ok j);
      check Alcotest.bool "pretty serializer round-trips" true
        (Json.parse (Json.to_string ~pretty:true j) = Ok j)

let test_json_unicode_escapes () =
  (* é is two UTF-8 bytes; the surrogate pair decodes to U+1F600
     (four bytes). *)
  match Json.parse {|"Aé😀"|} with
  | Ok (Json.Str s) -> check Alcotest.string "utf-8 decoding" "A\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" src
      | Error _ -> ())
    [ "{"; "[1,]"; "\"unterminated"; "{\"a\":1} trailing"; "nul"; "1.2.3"; "" ]

(* -- metrics exposition ------------------------------------------------------ *)

let test_openmetrics_render () =
  with_metrics (fun () ->
      Metrics.add (Metrics.counter "exp/events") 3;
      let h = Metrics.histogram "exp/latency" in
      List.iter (Metrics.observe h) [ 0.001; 0.01; 0.1; 1.0; 10.0 ];
      Metrics.observe (Metrics.histogram "exp/phase_seconds") 0.25;
      let spans =
        [
          { Span.layer = "simulator.stripe"; name = "Dp \"q\""; seconds = 0.25; count = 2;
            first = 0.; last = 1. };
        ]
      in
      let body = Metrics_export.openmetrics ~spans (Metrics.snapshot ()) in
      check Alcotest.bool "counter type line" true
        (contains ~needle:"# TYPE ckpt_exp_events counter" body);
      check Alcotest.bool "counter total" true (contains ~needle:"ckpt_exp_events_total 3" body);
      check Alcotest.bool "histogram keeps existing unit suffix" true
        (contains ~needle:"ckpt_exp_phase_seconds_sum" body);
      check Alcotest.bool "no doubled unit suffix" false (contains ~needle:"_seconds_seconds" body);
      check Alcotest.bool "span summary type line" true
        (contains ~needle:"# TYPE ckpt_span_seconds summary" body);
      check Alcotest.bool "span seconds, labels escaped" true
        (contains
           ~needle:{|ckpt_span_seconds_sum{layer="simulator.stripe",name="Dp \"q\""} 0.25|}
           body);
      check Alcotest.bool "span count" true
        (contains ~needle:{|ckpt_span_seconds_count{layer="simulator.stripe",name="Dp \"q\""} 2|}
           body);
      check Alcotest.bool "histogram gains unit suffix" true
        (contains ~needle:"ckpt_exp_latency_seconds_count 5" body);
      check Alcotest.bool "median quantile line" true
        (contains ~needle:"ckpt_exp_latency_seconds{quantile=\"0.5\"}" body);
      check Alcotest.bool "p99 quantile line" true (contains ~needle:"{quantile=\"0.99\"}" body);
      let terminator = "# EOF\n" in
      check Alcotest.bool "openmetrics terminator" true
        (String.length body >= String.length terminator
        && String.sub body
             (String.length body - String.length terminator)
             (String.length terminator)
           = terminator))

let test_jsonl_sample_parses () =
  with_metrics (fun () ->
      Metrics.incr (Metrics.counter "exp/ticks");
      let h = Metrics.histogram "exp/obs" in
      List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
      let line = Metrics_export.jsonl_sample ~ts:123.5 (Metrics.snapshot ()) in
      check Alcotest.bool "single line" true (not (String.contains line '\n'));
      match Json.parse line with
      | Error e -> Alcotest.failf "sample is not valid JSON: %s" e
      | Ok j ->
          close "timestamp" 123.5 (Option.get (Option.bind (Json.member j "ts") Json.to_float));
          let m = Option.get (Json.member j "metrics") in
          let field metric k =
            Option.get
              (Option.bind (Json.member m metric) (fun v -> Option.bind (Json.member v k) Json.to_float))
          in
          close "counter value" 1. (field "exp/ticks" "value");
          let q = field "exp/obs" in
          check Alcotest.bool "histogram quantiles ordered" true
            (q "p50" <= q "p90" && q "p90" <= q "p99"))

(* -- spans ---------------------------------------------------------------------- *)

let test_span_totals () =
  with_spans (fun () ->
      Span.record ~layer:"test.totals" "phase" ~t0:10. ~t1:10.5;
      Span.record ~layer:"test.totals" "phase" ~t0:11. ~t1:12.5;
      check Alcotest.int "time returns f's value" 42
        (Span.time ~layer:"test.totals" "timed" (fun () -> 42));
      (match span_total ~layer:"test.totals" "phase" with
      | Some t ->
          close "seconds" 2.0 t.Span.seconds;
          check Alcotest.int "count" 2 t.Span.count;
          close "first start" 10. t.Span.first;
          close "last end" 12.5 t.Span.last
      | None -> Alcotest.fail "phase recorded");
      check Alcotest.bool "timed span recorded" true
        (span_total ~layer:"test.totals" "timed" <> None);
      (* An exception still closes the span. *)
      (match Span.time ~layer:"test.totals" "raises" (fun () -> failwith "boom") with
      | () -> Alcotest.fail "must re-raise"
      | exception Failure _ -> ());
      check Alcotest.bool "raising span recorded" true
        (span_total ~layer:"test.totals" "raises" <> None);
      (* Disabled: [time] still runs [f], and nothing is recorded. *)
      Span.set_enabled false;
      let ran = ref false in
      Span.time ~layer:"test.totals" "gated" (fun () -> ran := true);
      Span.record ~layer:"test.totals" "gated" ~t0:0. ~t1:1.;
      check Alcotest.bool "disabled time runs f" true !ran;
      check Alcotest.bool "disabled records nothing" true
        (span_total ~layer:"test.totals" "gated" = None))

(* A span enclosing another layer's spans keeps its whole duration,
   and the domain's attribution counts the encloser once. *)
let test_span_enclosing_layer () =
  with_spans (fun () ->
      let outer_wall =
        let t0 = Span.now () in
        Span.time ~layer:"simulator.stripe" "enclosing" (fun () ->
            for _ = 1 to 3 do
              Span.time ~layer:"parallel.sched" "run-task" (fun () -> Unix.sleepf 0.01)
            done);
        Span.now () -. t0
      in
      let seconds layer name =
        match span_total ~layer name with Some t -> t.Span.seconds | None -> 0.
      in
      let stripe = seconds "simulator.stripe" "enclosing" in
      let sched = seconds "parallel.sched" "run-task" in
      check Alcotest.bool "nested spans timed" true (sched >= 0.03);
      check Alcotest.bool "encloser not truncated by nested layers" true (stripe >= sched);
      check Alcotest.bool "encloser within the measured wall" true (stripe <= outer_wall);
      match Span.tracks () with
      | [ t ] -> close ~tol:1e-12 "attribution counts the outermost span once" stripe t.Span.top_seconds
      | ts -> Alcotest.failf "expected one track, got %d" (List.length ts))

(* Marks make study reports independent: a study's totals are what was
   recorded since its own mark, however the studies follow or nest. *)
let test_span_scopes () =
  with_spans (fun () ->
      let calls m =
        match span_total ~since:m ~layer:"test.scope" "scoping-test" with
        | Some t -> t.Span.count
        | None -> 0
      in
      let tick () = Span.time ~layer:"test.scope" "scoping-test" ignore in
      let first = Span.mark () in
      tick ();
      tick ();
      let nested = Span.mark () in
      tick ();
      check Alcotest.int "a nested study sees its own spans" 1 (calls nested);
      check Alcotest.int "accumulates within one study" 3 (calls first);
      check Alcotest.int "scope is transparent when not verbose" 7
        (Span.scope ~label:"second study" (fun () -> 7));
      let second = Span.mark () in
      tick ();
      check Alcotest.int "fresh totals per study" 1 (calls second))

(* -- flight recorder: each track's ring of recent spans ------------------------- *)

let test_flight_monotone_clamp () =
  with_spans (fun () ->
      let sched = "parallel.sched" in
      Span.record ~layer:sched "run-task" ~t0:10. ~t1:12.;
      (* A backwards-stepping wall clock must not yield negative or
         reverse-overlapping spans within a layer. *)
      Span.record ~layer:sched "scan-miss" ~t0:11. ~t1:11.5;
      Span.record ~layer:sched "park" ~t0:13. ~t1:12.5;
      (* Another layer has its own clock. *)
      Span.record ~layer:"simulator.stripe" "enclosing" ~t0:9. ~t1:14.;
      match Span.recent () with
      | [ (_, [ a; b; c; d ]) ] ->
          close "first span kept" 10. a.Span.sp_t0;
          close "clamped start" 12. b.Span.sp_t0;
          close "clamped end" 12. b.Span.sp_t1;
          close "later start kept" 13. c.Span.sp_t0;
          close "end clamped to start" 13. c.Span.sp_t1;
          check Alcotest.bool "spans monotone" true
            (a.Span.sp_t1 <= b.Span.sp_t0 && b.Span.sp_t1 <= c.Span.sp_t0);
          close "other layer's start kept" 9. d.Span.sp_t0;
          close "other layer's end kept" 14. d.Span.sp_t1
      | rings -> Alcotest.failf "expected 1 track, got %d" (List.length rings))

let test_flight_wraparound () =
  with_spans (fun () ->
      let extra = 6 in
      for i = 0 to Span.ring_capacity + extra - 1 do
        let x = float_of_int i in
        Span.record ~layer:"parallel.sched" "run-task" ~t0:x ~t1:(x +. 0.5)
      done;
      (match Span.tracks () with
      | [ t ] -> check Alcotest.int "dropped counts overwrites" extra t.Span.dropped
      | _ -> Alcotest.fail "expected one track");
      (match span_total ~layer:"parallel.sched" "run-task" with
      | Some t -> check Alcotest.int "totals stay exact" (Span.ring_capacity + extra) t.Span.count
      | None -> Alcotest.fail "totals recorded");
      match Span.recent () with
      | [ (_, sps) ] ->
          check Alcotest.int "ring keeps capacity spans" Span.ring_capacity (List.length sps);
          close "oldest surviving span" (float_of_int extra) (List.hd sps).Span.sp_t0;
          close "newest span"
            (float_of_int (Span.ring_capacity + extra - 1))
            (List.nth sps (Span.ring_capacity - 1)).Span.sp_t0
      | _ -> Alcotest.fail "expected one track")

(* Two tracks written from one domain by renaming it: each name is its
   own single-writer track. *)
let record_on track spans =
  Span.name_track track;
  List.iter (fun (state, t0, t1) -> Span.record ~layer:"parallel.sched" state ~t0 ~t1) spans

let test_flight_report () =
  with_spans (fun () ->
      record_on "worker0"
        [ ("run-task", 0., 6.); ("scan-miss", 6., 9.); ("park", 9., 10.); ("unpark", 10., 10.) ];
      record_on "external0" [ ("publish", 0., 0.5); ("run-task", 0.5, 10.) ];
      let reports = Domain_pool.utilization () in
      check Alcotest.int "one report per track" 2 (List.length reports);
      let wr = List.find (fun u -> u.Domain_pool.domain = "worker0") reports in
      close "wall = last end - first start" 10. wr.Domain_pool.wall;
      close "attribution covers the wall" 10. wr.Domain_pool.attributed;
      close "run-task seconds" 6. (Domain_pool.state_seconds [ wr ] "run-task");
      check Alcotest.int "unpark counted as an event" 1 (Domain_pool.state_count [ wr ] "unpark");
      close "unpark has no duration" 0. (Domain_pool.state_seconds [ wr ] "unpark");
      (* Empty scans (3 s) beat parking churn (1 s) and publication (0.5 s). *)
      match Domain_pool.overheads reports with
      | (label, seconds, _) :: _ ->
          check Alcotest.string "dominant overhead" "empty scans" label;
          close "dominant seconds" 3. seconds
      | [] -> Alcotest.fail "expected a dominant overhead")

let test_flight_chrome_golden () =
  with_spans (fun () ->
      record_on "worker0" [ ("run-task", 100.0, 100.5); ("scan-miss", 100.5, 100.6); ("unpark", 100.6, 100.6) ];
      record_on "external0" [ ("publish", 100.0, 100.1) ];
      Span.record ~layer:"simulator.stripe" "DPNextFailure" ~t0:100.0 ~t1:100.4;
      let path = Filename.temp_file "ckpt_spans" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Span.write_chrome ~path;
          let body = read_file path in
          match Json.parse body with
          | Error e -> Alcotest.failf "span trace is not valid JSON: %s" e
          | Ok j ->
              let events = Option.get (Option.bind (Json.member j "traceEvents") Json.to_list) in
              check Alcotest.bool "has events" true (events <> []);
              let str ev k = Option.bind (Json.member ev k) Json.to_string_opt in
              let ph ev = str ev "ph" in
              let names =
                List.filter_map
                  (fun ev ->
                    if ph ev = Some "M" then
                      Option.bind (Json.member ev "args") (fun a -> str a "name")
                    else None)
                  events
              in
              check Alcotest.bool "both tracks carry thread_name metadata" true
                (List.mem "worker0" names && List.mem "external0" names);
              List.iter
                (fun ev ->
                  let has k = Json.member ev k <> None in
                  check Alcotest.bool "ph present" true (has "ph");
                  check Alcotest.bool "pid present" true (has "pid");
                  check Alcotest.bool "tid present" true (has "tid");
                  if ph ev <> Some "M" then begin
                    check Alcotest.bool "cat present" true (has "cat");
                    check Alcotest.bool "ts present" true (has "ts");
                    check Alcotest.bool "ts rebased to trace start" true
                      (Option.get (Option.bind (Json.member ev "ts") Json.to_float) >= 0.)
                  end)
                events;
              let phs = List.filter_map ph events in
              check Alcotest.bool "complete spans present" true (List.mem "X" phs);
              check Alcotest.bool "instant events present" true (List.mem "i" phs);
              let cats = List.filter_map (fun ev -> str ev "cat") events in
              check Alcotest.bool "every layer exported" true
                (List.mem "parallel.sched" cats && List.mem "simulator.stripe" cats)))

(* -- provenance ------------------------------------------------------------- *)

let test_provenance_manifest () =
  let m = Provenance.manifest ~extra:[ ("seed", "42"); ("policy", "DPNextFailure") ] () in
  check Alcotest.bool "has parameters" true (contains ~needle:"\"parameters\"" m);
  check Alcotest.bool "carries the seed" true (contains ~needle:"\"seed\": \"42\"" m);
  check Alcotest.bool "records domains" true (contains ~needle:"\"domains\"" m);
  check Alcotest.bool "records ocaml version" true (contains ~needle:Sys.ocaml_version m)

let test_provenance_sidecar () =
  let artifact = Filename.temp_file "ckpt_artifact" ".csv" in
  let sidecar = Provenance.sidecar_path artifact in
  check Alcotest.string "sidecar naming" (artifact ^ ".meta.json") sidecar;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove artifact;
      if Sys.file_exists sidecar then Sys.remove sidecar)
    (fun () ->
      Provenance.write_sidecar ~extra:[ ("experiment", "unit-test") ] ~path:artifact ();
      check Alcotest.bool "sidecar written" true (Sys.file_exists sidecar);
      let body = read_file sidecar in
      check Alcotest.bool "sidecar carries parameters" true
        (contains ~needle:"unit-test" body))

let test_provenance_sidecar_never_raises () =
  (* The artifact's directory does not exist: the sidecar silently
     fails rather than breaking the caller. *)
  Provenance.write_sidecar ~path:"/nonexistent-dir-ckpt/out.csv" ();
  check Alcotest.bool "survived" true true

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics registry",
        [
          Alcotest.test_case "counter/gauge/histogram" `Quick test_metrics_kinds;
          Alcotest.test_case "kind mismatch raises" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "disabled gating" `Quick test_metrics_gating;
          Alcotest.test_case "reset by prefix" `Quick test_metrics_reset_prefix;
          Alcotest.test_case "snapshot sorted" `Quick test_metrics_snapshot_sorted;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "merge = concatenated stream" `Quick test_histogram_merge;
          Alcotest.test_case "moments and quantiles" `Quick test_histogram_moments;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_merge_commutative; prop_merge_associative; prop_quantile_monotone ] );
      ( "domain safety",
        [ Alcotest.test_case "concurrent increments are exact" `Quick test_metrics_concurrent_increments ] );
      ( "json",
        [
          Alcotest.test_case "parse + round-trip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects_garbage;
        ] );
      ( "metrics export",
        [
          Alcotest.test_case "openmetrics textfile" `Quick test_openmetrics_render;
          Alcotest.test_case "jsonl sample parses" `Quick test_jsonl_sample_parses;
        ] );
      ( "spans",
        [
          Alcotest.test_case "totals and gating" `Quick test_span_totals;
          Alcotest.test_case "enclosing layer keeps duration" `Quick test_span_enclosing_layer;
          Alcotest.test_case "back-to-back scopes" `Quick test_span_scopes;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "monotone clamp" `Quick test_flight_monotone_clamp;
          Alcotest.test_case "ring wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "utilization report" `Quick test_flight_report;
          Alcotest.test_case "chrome trace golden" `Quick test_flight_chrome_golden;
        ] );
      ( "ring buffers",
        [
          Alcotest.test_case "wraparound + dropped" `Quick test_buffer_wraparound;
          Alcotest.test_case "totals arithmetic" `Quick test_buffer_totals;
          Alcotest.test_case "sink register/drain" `Quick test_sink_register_drain;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl line shape" `Quick test_jsonl_line;
          Alcotest.test_case "chrome trace_event" `Quick test_chrome_export;
          Alcotest.test_case "jsonl file" `Quick test_jsonl_export;
          Alcotest.test_case "json escaping" `Quick test_json_escape;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "manifest contents" `Quick test_provenance_manifest;
          Alcotest.test_case "sidecar round-trip" `Quick test_provenance_sidecar;
          Alcotest.test_case "sidecar never raises" `Quick test_provenance_sidecar_never_raises;
        ] );
    ]
