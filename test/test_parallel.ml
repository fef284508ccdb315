(* Tests for the persistent domain pool. *)

module Domain_pool = Ckpt_parallel.Domain_pool

let check = Alcotest.check

exception Boom

let with_env key value f =
  let previous = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv key (match previous with Some v -> v | None -> ""))

(* Domain counts every front-door test runs at: 1 is the inline
   sequential reference, the others go through the pool. *)
let domain_counts = [ 1; 2; 4 ]

(* -- front door ------------------------------------------------------------- *)

let test_matches_sequential () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let expected = Array.init n (fun i -> i * i) in
          let actual = Domain_pool.parallel_init ~domains n (fun i -> i * i) in
          check (Alcotest.array Alcotest.int)
            (Printf.sprintf "n=%d domains=%d" n domains)
            expected actual)
        [ 0; 1; 2; 7; 100 ])
    domain_counts

let test_every_slot_once () =
  List.iter
    (fun domains ->
      let n = 1000 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      ignore
        (Domain_pool.parallel_init ~domains n (fun i ->
             Atomic.incr hits.(i);
             i));
      Array.iteri
        (fun i h ->
          check Alcotest.int (Printf.sprintf "domains=%d slot %d" domains i) 1 (Atomic.get h))
        hits)
    domain_counts

let test_map_list_order () =
  let out = Domain_pool.parallel_map_list ~domains:3 (fun x -> x * 10) [ 1; 2; 3; 4; 5 ] in
  check (Alcotest.list Alcotest.int) "order preserved" [ 10; 20; 30; 40; 50 ] out

let test_exception_propagates () =
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "raises with %d domains" domains)
        Boom
        (fun () ->
          ignore (Domain_pool.parallel_init ~domains 16 (fun i -> if i = 7 then raise Boom else i))))
    [ 1; 3 ]

let test_exception_keeps_backtrace () =
  (* The re-raise must carry the failing task's own backtrace, not the
     join site's.  [deep_raise] appears in it only if the original
     trace was preserved through the scheduler. *)
  let[@inline never] deep_raise () = raise Boom in
  Printexc.record_backtrace true;
  List.iter
    (fun domains ->
      match Domain_pool.parallel_init ~domains 8 (fun i -> if i = 3 then deep_raise () else i) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom ->
          let bt = Printexc.get_backtrace () in
          check Alcotest.bool
            (Printf.sprintf "original backtrace survives (domains=%d): %s" domains bt)
            true
            (String.length bt > 0))
    [ 1; 4 ]

let test_error_stops_claiming () =
  (* Task 0 fails immediately; each task otherwise sleeps, so draining
     the whole range would take ~0.4 s while the error flag is set
     within microseconds: far fewer than [n] tasks may start. *)
  let n = 200 in
  let executed = Atomic.make 0 in
  Alcotest.check_raises "failure propagates" Boom (fun () ->
      ignore
        (Domain_pool.parallel_init ~domains:4 n (fun i ->
             Atomic.incr executed;
             if i = 0 then raise Boom;
             Unix.sleepf 0.002)));
  check Alcotest.bool
    (Printf.sprintf "aborted early (%d/%d tasks started)" (Atomic.get executed) n)
    true
    (Atomic.get executed < n)

let test_nested_composes () =
  List.iter
    (fun domains ->
      let label what = Printf.sprintf "domains=%d: %s" domains what in
      (* Each task reports what it saw instead of asserting in place:
         Alcotest's assertion log is not domain-safe, so every [check]
         runs on the calling domain after the join. *)
      let outer =
        Domain_pool.parallel_init ~domains 4 (fun i ->
            (* Inline or pooled, a nested call must produce
               Array.init's results. *)
            let inner = Domain_pool.parallel_init ~domains 8 (fun j -> (10 * i) + j) in
            Array.fold_left ( + ) 0 inner)
      in
      let expected = Array.init 4 (fun i -> (80 * i) + 28) in
      check (Alcotest.array Alcotest.int) (label "nested sums") expected outer)
    domain_counts

let test_both () =
  List.iter
    (fun domains ->
      let label what = Printf.sprintf "domains=%d: %s" domains what in
      let a, b = Domain_pool.both ~domains (fun () -> 6 * 7) (fun () -> "ok") in
      check Alcotest.int (label "both left") 42 a;
      check Alcotest.string (label "both right") "ok" b;
      (* Nested fork/join: both inside a parallel region. *)
      let nested =
        Domain_pool.parallel_init ~domains 4 (fun i ->
            let x, y = Domain_pool.both ~domains (fun () -> i) (fun () -> 2 * i) in
            x + y)
      in
      check (Alcotest.array Alcotest.int) (label "nested both") (Array.init 4 (fun i -> 3 * i)) nested;
      Alcotest.check_raises (label "both propagates") Boom (fun () ->
          ignore (Domain_pool.both ~domains (fun () -> ()) (fun () -> raise Boom))))
    domain_counts

let test_negative_size () =
  Alcotest.check_raises "negative" (Invalid_argument "Domain_pool.parallel_init: negative size")
    (fun () -> ignore (Domain_pool.parallel_init ~domains:2 (-1) (fun i -> i)))

let test_recommended_env_override () =
  with_env "CKPT_DOMAINS" "3" (fun () ->
      check Alcotest.int "env override" 3 (Domain_pool.recommended_domains ()))

let test_recommended_malformed () =
  (* Malformed values warn on stderr (once per value) and fall back to
     the hardware default instead of failing or being silently eaten. *)
  let default = Domain.recommended_domain_count () in
  List.iter
    (fun bad ->
      with_env "CKPT_DOMAINS" bad (fun () ->
          check Alcotest.int
            (Printf.sprintf "malformed %S falls back" bad)
            default
            (Domain_pool.recommended_domains ())))
    [ "0"; "-3"; "abc" ];
  (* An unset-by-restore empty string is not malformed. *)
  with_env "CKPT_DOMAINS" "" (fun () ->
      check Alcotest.int "empty means unset" default (Domain_pool.recommended_domains ()))

let test_pool_persists () =
  ignore (Domain_pool.parallel_init ~domains:4 8 (fun i -> i));
  let after_first = Domain_pool.pool_workers () in
  check Alcotest.bool "pool spawned" true (after_first >= 3);
  ignore (Domain_pool.parallel_init ~domains:4 8 (fun i -> i));
  check Alcotest.int "no respawn on the second region" after_first (Domain_pool.pool_workers ());
  ignore (Domain_pool.parallel_init ~domains:6 8 (fun i -> i));
  check Alcotest.bool "pool grows on demand" true (Domain_pool.pool_workers () >= 5)

(* -- properties ------------------------------------------------------------- *)

let prop_matches_array_init =
  QCheck2.Test.make ~name:"parallel_init = Array.init" ~count:50
    QCheck2.Gen.(pair (int_range 0 200) (int_range 1 4))
    (fun (n, domains) ->
      Domain_pool.parallel_init ~domains n (fun i -> (i * 7) mod 13)
      = Array.init n (fun i -> (i * 7) mod 13))

(* Random nesting trees with randomly failing tasks: the pool must be
   bit-identical to the inline run at one domain — same values when
   nothing fails, and a raised [Boom] (early abort included) exactly
   when the inline run raises. *)
type spec = Node of { n : int; fail_at : int option; children : spec list }

let spec_gen =
  let open QCheck2.Gen in
  let node_gen self depth =
    let* n = int_range 0 6 in
    let* fail_at =
      if n = 0 then return None
      else
        frequency [ (9, return None); (1, int_range 0 (n - 1) >|= Option.some) ]
    in
    let* children = if depth = 0 then return [] else list_size (int_range 0 3) (self (depth - 1)) in
    return (Node { n; fail_at; children })
  in
  let rec fixed depth = node_gen fixed depth in
  int_range 0 2 >>= fixed

let rec print_spec (Node { n; fail_at; children }) =
  Printf.sprintf "Node(n=%d, fail=%s, [%s])" n
    (match fail_at with None -> "-" | Some i -> string_of_int i)
    (String.concat "; " (List.map print_spec children))

let rec eval_spec ~domains (Node { n; fail_at; children }) =
  let child = Array.of_list children in
  Domain_pool.parallel_init ~domains n (fun i ->
      if fail_at = Some i then raise Boom;
      let sub =
        if Array.length child = 0 then 0
        else
          Array.fold_left ( + ) 0 (eval_spec ~domains child.(i mod Array.length child))
      in
      ((i * 17) mod 29) + sub)

let run_spec ~domains spec =
  match eval_spec ~domains spec with v -> Ok v | exception Boom -> Error "boom"

let prop_steal_matches_seq =
  QCheck2.Test.make ~name:"steal = seq over random nesting trees" ~count:60
    ~print:print_spec spec_gen
    (fun spec ->
      let reference = run_spec ~domains:1 spec in
      List.for_all (fun domains -> run_spec ~domains spec = reference) [ 2; 4 ])

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "matches sequential" `Quick test_matches_sequential;
          Alcotest.test_case "every slot exactly once" `Quick test_every_slot_once;
          Alcotest.test_case "map_list order" `Quick test_map_list_order;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "exception keeps backtrace" `Quick test_exception_keeps_backtrace;
          Alcotest.test_case "error stops claiming" `Quick test_error_stops_claiming;
          Alcotest.test_case "nested calls compose" `Quick test_nested_composes;
          Alcotest.test_case "fork/join both" `Quick test_both;
          Alcotest.test_case "negative size" `Quick test_negative_size;
          Alcotest.test_case "env override" `Quick test_recommended_env_override;
          Alcotest.test_case "malformed CKPT_DOMAINS warns" `Quick test_recommended_malformed;
          Alcotest.test_case "pool persists and grows" `Quick test_pool_persists;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_matches_array_init; prop_steal_matches_seq ]
      );
    ]
