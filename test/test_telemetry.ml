(* Telemetry subsystem: metrics registry semantics, wall-clock spans,
   trace buffers, export formats and provenance sidecars. *)

module Metrics = Ckpt_telemetry.Metrics
module Tracer = Ckpt_telemetry.Tracer
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

let pp_metric fmt = function
  | Metrics.Counter n -> Format.fprintf fmt "counter %d" n
  | Metrics.Gauge v -> Format.fprintf fmt "gauge %g" v

let test_metrics_kinds () =
  with_metrics (fun () ->
      let c = Metrics.counter "test/kinds_counter" in
      Metrics.incr c;
      Metrics.add c 4;
      (match Metrics.find "test/kinds_counter" with
      | Some (Metrics.Counter 5) -> ()
      | v -> Alcotest.failf "counter: unexpected %a" (Fmt.option pp_metric) v);
      let g = Metrics.gauge "test/kinds_gauge" in
      Metrics.set g 2.5;
      Metrics.set g 7.25;
      match Metrics.find "test/kinds_gauge" with
      | Some (Metrics.Gauge 7.25) -> ()
      | v -> Alcotest.failf "gauge: unexpected %a" (Fmt.option pp_metric) v)

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
  let g = Metrics.gauge "test/gated_gauge" in
  Metrics.reset ~prefix:"test/gated" ();
  Metrics.incr c;
  Metrics.set g 3.0;
  (match Metrics.find "test/gated_counter" with
  | Some (Metrics.Counter 0) -> ()
  | _ -> Alcotest.fail "disabled counter must not move");
  match Metrics.find "test/gated_gauge" with
  | Some (Metrics.Gauge v) -> check Alcotest.bool "disabled gauge stays unset" true (Float.is_nan v)
  | _ -> Alcotest.fail "gauge registered"

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

(* -- trace buffers ---------------------------------------------------------- *)

let test_buffer_totals () =
  let buf = Tracer.create_buffer ~name:"totals" () in
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

(* -- export formats --------------------------------------------------------- *)

let test_jsonl_line () =
  let line =
    Tracer.jsonl_line ~buffer_name:"rep0/Daly"
      (Tracer.Chunk_commit { t0 = 1.5; t1 = 2.5; work = 1.0 })
  in
  check Alcotest.bool "names the buffer" true (contains ~needle:"rep0/Daly" line);
  check Alcotest.bool "names the event" true (contains ~needle:"chunk-commit" line);
  check Alcotest.bool "single line" true (not (String.contains line '\n'))

let test_chrome_export () =
  let buf = Tracer.create_buffer ~name:"rep0/export-test" () in
  Tracer.emit buf (Tracer.Chunk_commit { t0 = 0.; t1 = 5.; work = 5. });
  Tracer.emit buf (Tracer.Failure { at = 5.; proc = 3 });
  let path = Filename.temp_file "ckpt_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracer.write ~path buf;
      let body = read_file path in
      check Alcotest.bool "trace_event envelope" true (contains ~needle:"\"traceEvents\"" body);
      check Alcotest.bool "thread named after buffer" true
        (contains ~needle:"rep0/export-test" body);
      check Alcotest.bool "complete event" true (contains ~needle:"\"ph\":\"X\"" body);
      check Alcotest.bool "instant event for the failure" true
        (contains ~needle:"\"ph\":\"i\"" body))

let test_jsonl_export () =
  let buf = Tracer.create_buffer ~name:"rep1/lines" () in
  Tracer.emit buf (Tracer.Checkpoint { t0 = 0.; t1 = 1.; cost = 1. });
  Tracer.emit buf (Tracer.Downtime { t0 = 1.; t1 = 2. });
  let path = Filename.temp_file "ckpt_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracer.write ~path buf;
      let body = read_file path in
      let lines = String.split_on_char '\n' (String.trim body) in
      check Alcotest.int "one line per event" 2 (List.length lines);
      List.iter
        (fun l ->
          check Alcotest.bool "line is an object" true
            (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines)

(* One event of every kind, in the order the engine could emit them. *)
let every_kind =
  [
    Tracer.Decision { at = 0.; chunk = 10.; remaining = 100. };
    Tracer.Chunk_start { at = 0.; work = 10. };
    Tracer.Chunk_commit { t0 = 0.; t1 = 10.; work = 10. };
    Tracer.Checkpoint { t0 = 10.; t1 = 13.; cost = 3. };
    Tracer.Failure { at = 15.; proc = 7 };
    Tracer.Waste { t0 = 13.; t1 = 15. };
    Tracer.Downtime { t0 = 15.; t1 = 16. };
    Tracer.Recovery_start { at = 16. };
    Tracer.Recovery_abort { t0 = 16.; t1 = 17. };
    Tracer.Recovery_complete { t0 = 18.; t1 = 20.; cost = 2. };
  ]

let is_span = function
  | Tracer.Chunk_commit _ | Tracer.Checkpoint _ | Tracer.Waste _ | Tracer.Downtime _
  | Tracer.Recovery_abort _ | Tracer.Recovery_complete _ ->
      true
  | Tracer.Decision _ | Tracer.Chunk_start _ | Tracer.Failure _ | Tracer.Recovery_start _ -> false

let test_chrome_every_kind () =
  let buf = Tracer.create_buffer ~name:"rep3/\"every\" kind" () in
  List.iter (Tracer.emit buf) every_kind;
  let path = Filename.temp_file "ckpt_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracer.write ~path buf;
      match Json.parse (read_file path) with
      | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
      | Ok j ->
          let events = Option.get (Option.bind (Json.member j "traceEvents") Json.to_list) in
          let str ev k = Option.bind (Json.member ev k) Json.to_string_opt in
          let meta, rest = List.partition (fun ev -> str ev "ph" = Some "M") events in
          check
            Alcotest.(list (option string))
            "one thread_name, naming the buffer"
            [ Some "rep3/\"every\" kind" ]
            (List.map (fun ev -> Option.bind (Json.member ev "args") (fun a -> str a "name")) meta);
          check
            Alcotest.(list string)
            "one event per Tracer.to_list element: X for spans, i for instants"
            (List.map (fun e -> if is_span e then "X" else "i") (Tracer.to_list buf))
            (List.map (fun ev -> Option.value ~default:"?" (str ev "ph")) rest);
          List.iter
            (fun ev ->
              check Alcotest.(option string) "category is the span name" (str ev "name")
                (str ev "cat"))
            rest)

let test_jsonl_every_kind () =
  let buf = Tracer.create_buffer ~name:"rep3/lines" () in
  List.iter (Tracer.emit buf) every_kind;
  let path = Filename.temp_file "ckpt_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracer.write ~path buf;
      let lines = String.split_on_char '\n' (String.trim (read_file path)) in
      check Alcotest.int "one line per event" (List.length every_kind) (List.length lines);
      List.iter
        (fun l ->
          match Json.parse l with
          | Error e -> Alcotest.failf "line %S is not valid JSON: %s" l e
          | Ok j ->
              check Alcotest.(option string) "names the run" (Some "rep3/lines")
                (Option.bind (Json.member j "run") Json.to_string_opt))
        lines)

(* [Span.chrome] of a fixed set of rings, byte for byte as the Chrome
   writer rendered it before it was shared with the simulated-time
   trace. *)
let test_span_chrome_pinned () =
  let sp layer name t0 t1 = { Span.sp_layer = layer; sp_name = name; sp_t0 = t0; sp_t1 = t1 } in
  let rings =
    [
      ( "worker0",
        [
          sp "simulator.stripe" "DPNextFailure" 1760000000.125 1760000001.5;
          sp "parallel.sched" "run-task" 1760000000.25 1760000000.75;
          sp "parallel.sched" "publish" 1760000001.0 1760000001.0;
        ] );
      ("external\"1", [ sp "simulator.reduce" "a\\b" 1759999999.999999 1760000000.000001 ]);
      ("empty", []);
    ]
  in
  check Alcotest.string "fixed rings"
    {|{"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker0"}},
{"name":"DPNextFailure","cat":"simulator.stripe","pid":0,"tid":0,"ts":125000.954,"ph":"X","dur":1375000.000},
{"name":"run-task","cat":"parallel.sched","pid":0,"tid":0,"ts":250000.954,"ph":"X","dur":500000.000},
{"name":"publish","cat":"parallel.sched","pid":0,"tid":0,"ts":1000000.954,"ph":"i","s":"t"},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"external\"1"}},
{"name":"a\\b","cat":"simulator.reduce","pid":0,"tid":1,"ts":0.000,"ph":"X","dur":1.907},
{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"empty"}}
]}
|}
    (Span.chrome rings);
  check Alcotest.string "no rings" "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n"
    (Span.chrome [])

let test_json_escape () =
  check Alcotest.string "quotes and backslashes" "a\\\"b\\\\c"
    (Json.escape "a\"b\\c");
  check Alcotest.string "control characters" "tab\\there" (Json.escape "tab\there")

(* -- domain safety ----------------------------------------------------------- *)

let test_metrics_concurrent_increments () =
  with_spans @@ fun () ->
  with_metrics (fun () ->
      let c = Metrics.counter "stress/hits" in
      Metrics.reset ~prefix:"stress/" ();
      let domains = 4 and per = 10_000 in
      let worker () =
        for i = 1 to per do
          Metrics.incr c;
          (* Each domain records on its own track; the merge is exact. *)
          let t0 = float_of_int i in
          Span.record ~layer:"stress" "span" ~t0 ~t1:(t0 +. 1e-3)
        done
      in
      let ds = List.init domains (fun _ -> Domain.spawn worker) in
      List.iter Domain.join ds;
      (match Metrics.find "stress/hits" with
      | Some (Metrics.Counter n) -> check Alcotest.int "no lost counter increments" (domains * per) n
      | _ -> Alcotest.fail "counter registered");
      match span_total ~layer:"stress" "span" with
      | Some t ->
          check Alcotest.int "one track per domain" domains (List.length (Span.tracks ()));
          check Alcotest.int "no lost spans" (domains * per) t.Span.count;
          close ~tol:1e-6 "span seconds exact" (float_of_int (domains * per) *. 1e-3) t.Span.seconds
      | None -> Alcotest.fail "spans recorded")

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
      Metrics.set (Metrics.gauge "exp/level") 0.25;
      ignore (Metrics.gauge "exp/never_set");
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
      check Alcotest.bool "gauge type line" true (contains ~needle:"# TYPE ckpt_exp_level gauge" body);
      check Alcotest.bool "gauge value" true (contains ~needle:"ckpt_exp_level 0.25" body);
      check Alcotest.bool "unset gauge omitted" false (contains ~needle:"exp_never_set" body);
      check Alcotest.bool "span summary type line" true
        (contains ~needle:"# TYPE ckpt_span_seconds summary" body);
      check Alcotest.bool "span seconds, labels escaped" true
        (contains
           ~needle:{|ckpt_span_seconds_sum{layer="simulator.stripe",name="Dp \"q\""} 0.25|}
           body);
      check Alcotest.bool "span count" true
        (contains ~needle:{|ckpt_span_seconds_count{layer="simulator.stripe",name="Dp \"q\""} 2|}
           body);
      let terminator = "# EOF\n" in
      check Alcotest.bool "openmetrics terminator" true
        (String.length body >= String.length terminator
        && String.sub body
             (String.length body - String.length terminator)
             (String.length terminator)
           = terminator))

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
          Alcotest.test_case "counter/gauge" `Quick test_metrics_kinds;
          Alcotest.test_case "kind mismatch raises" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "disabled gating" `Quick test_metrics_gating;
          Alcotest.test_case "reset by prefix" `Quick test_metrics_reset_prefix;
          Alcotest.test_case "snapshot sorted" `Quick test_metrics_snapshot_sorted;
        ] );
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
          Alcotest.test_case "totals arithmetic" `Quick test_buffer_totals;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl line shape" `Quick test_jsonl_line;
          Alcotest.test_case "chrome trace_event" `Quick test_chrome_export;
          Alcotest.test_case "jsonl file" `Quick test_jsonl_export;
          Alcotest.test_case "chrome every event kind" `Quick test_chrome_every_kind;
          Alcotest.test_case "jsonl every event kind" `Quick test_jsonl_every_kind;
          Alcotest.test_case "span chrome bytes pinned" `Quick test_span_chrome_pinned;
          Alcotest.test_case "json escaping" `Quick test_json_escape;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "manifest contents" `Quick test_provenance_manifest;
          Alcotest.test_case "sidecar round-trip" `Quick test_provenance_sidecar;
          Alcotest.test_case "sidecar never raises" `Quick test_provenance_sidecar_never_raises;
        ] );
    ]
