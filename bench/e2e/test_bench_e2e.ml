open Bench_e2e

let close = Alcotest.float 1e-12
let triple = Alcotest.(triple close close close)
let verdict = Alcotest.testable (Fmt.of_to_string Stats.verdict_name) ( = )

(* Reference values from Python: statistics.quantiles(data, n=4). *)
let quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "1..5" (1.5, 3., 4.5) (Stats.quartiles [ 5.; 3.; 1.; 4.; 2. ]);
  Alcotest.check triple "two values extrapolate" (0.75, 1.5, 2.25) (Stats.quartiles [ 2.; 1. ]);
  Alcotest.check triple "one value" (7., 7., 7.) (Stats.quartiles [ 7. ]);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "spread is the IQR over the median" 1.
    (Stats.spread (Stats.summarize (List.init 10 (fun i -> float_of_int (i + 1)))))

let parent = List.init 10 (fun i -> 10. +. (0.01 *. float_of_int i))
let check_verdict name expected ?(direction = Stats.Lower_is_better) ?(bound = 0.1) change =
  Alcotest.check verdict name expected (Stats.verdict ~direction ~bound ~parent ~change)

let win_ratio () =
  check_verdict "wins every pair by far" Stats.Improved (List.map (fun v -> v *. 0.9) parent);
  (* 8 of 10 pairs won: below the 9-in-10 rule however large the gain. *)
  check_verdict "wins 8 of 10" Stats.Unchanged
    (List.mapi (fun i v -> if i < 2 then v +. 0.05 else v *. 0.97) parent);
  (* Every pair won, but by less than the parent's interquartile range. *)
  check_verdict "wins within the spread" Stats.Unchanged (List.map (fun v -> v -. 0.001) parent);
  check_verdict "higher is better" Stats.Improved ~direction:Stats.Higher_is_better
    (List.map (fun v -> v *. 1.1) parent);
  check_verdict "worse beyond the bound" Stats.Worse (List.map (fun v -> v *. 1.2) parent)

let unresolved () =
  let wide = [ 5.; 15.; 6.; 14.; 7.; 13.; 8.; 12.; 9.; 11. ] in
  Alcotest.check verdict "spread wider than the bound" Stats.Unresolved
    (Stats.verdict ~direction:Stats.Lower_is_better ~bound:0.1 ~parent:wide
       ~change:(List.rev wide));
  Alcotest.check verdict "every change run better than every parent run" Stats.Unchanged
    (Stats.verdict ~direction:Stats.Lower_is_better ~bound:0.1 ~parent:wide
       ~change:(List.map (fun v -> v /. 4.) [ 15.; 16.; 17.; 18.; 19. ]))

let record ~nproc ~wall =
  Printf.sprintf {|{"workload":"table4","trace":0,"nproc":%d,"metrics":{"wall_s":%g}}|} nproc wall

let runs_of lines =
  match Compare.runs_of_string (String.concat "\n" lines) with
  | Ok runs -> runs
  | Error e -> Alcotest.fail e

let incomparable () =
  let parent = runs_of [ record ~nproc:2 ~wall:10.; record ~nproc:2 ~wall:11. ] in
  (match Compare.compare ~parent ~change:(runs_of [ record ~nproc:4 ~wall:5. ]) with
  | Compare.Incomparable _ -> ()
  | Compare.Verdicts _ -> Alcotest.fail "hosts with different core counts compared");
  match Compare.compare ~parent ~change:(runs_of [ record ~nproc:2 ~wall:10.5 ]) with
  | Compare.Verdicts [ r ] -> Alcotest.check Alcotest.string "metric" "wall_s" r.Compare.metric.name
  | _ -> Alcotest.fail "expected one verdict"

let malformed () =
  match Compare.runs_of_string (record ~nproc:2 ~wall:1. ^ "\n{\"workload\": 3}") with
  | Error e ->
      Alcotest.check Alcotest.string "names the line" "line 2 is not a benchmark run record" e
  | Ok _ -> Alcotest.fail "malformed record accepted"

let () =
  Alcotest.run "bench_e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match Python" `Quick quartiles;
          Alcotest.test_case "win-ratio rule" `Quick win_ratio;
          Alcotest.test_case "unresolved rule" `Quick unresolved;
        ] );
      ( "compare",
        [
          Alcotest.test_case "incomparable host" `Quick incomparable;
          Alcotest.test_case "malformed record" `Quick malformed;
        ] );
    ]
