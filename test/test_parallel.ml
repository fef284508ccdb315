(* Tests for the work-stealing scheduler and its lock-free deques. *)

module Deque = Ckpt_parallel.Deque
module Domain_pool = Ckpt_parallel.Domain_pool

let check = Alcotest.check

exception Boom

let with_env key value f =
  let previous = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv key (match previous with Some v -> v | None -> ""))

let with_sched mode f = with_env "CKPT_SCHED" mode f
let schedulers = [ "seq"; "flat"; "steal" ]

(* -- deque ------------------------------------------------------------------ *)

let test_deque_lifo_fifo () =
  let d = Deque.create () in
  for i = 0 to 9 do
    Deque.push d i
  done;
  check Alcotest.int "size" 10 (Deque.size d);
  (* Owner pops newest first... *)
  check (Alcotest.option Alcotest.int) "pop is LIFO" (Some 9) (Deque.pop d);
  (* ...thieves take the oldest. *)
  check (Alcotest.option Alcotest.int) "steal is FIFO" (Some 0) (Deque.steal d);
  check (Alcotest.option Alcotest.int) "steal again" (Some 1) (Deque.steal d);
  check (Alcotest.option Alcotest.int) "pop again" (Some 8) (Deque.pop d);
  let drained = ref 0 in
  let rec drain () =
    match Deque.pop d with
    | Some _ ->
        incr drained;
        drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.int "remaining elements" 6 !drained;
  check (Alcotest.option Alcotest.int) "empty pop" None (Deque.pop d);
  check (Alcotest.option Alcotest.int) "empty steal" None (Deque.steal d)

let test_deque_grows () =
  (* Push far past the initial buffer capacity; nothing may be lost. *)
  let d = Deque.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Deque.push d i
  done;
  let sum = ref 0 in
  let rec drain () =
    match Deque.pop d with
    | Some v ->
        sum := !sum + v;
        drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.int "sum of all pushed" (n * (n - 1) / 2) !sum

let test_deque_concurrent_steal () =
  (* One owner pushing and popping, three thieves stealing: every
     element must be taken exactly once. *)
  let d = Deque.create () in
  let n = 20_000 in
  let taken = Array.make n (Atomic.make 0) in
  Array.iteri (fun i _ -> taken.(i) <- Atomic.make 0) taken;
  let stop = Atomic.make false in
  let thief () =
    let rec loop () =
      match Deque.steal d with
      | Some v ->
          Atomic.incr taken.(v);
          loop ()
      | None -> if not (Atomic.get stop) then loop ()
    in
    loop ()
  in
  let thieves = List.init 3 (fun _ -> Domain.spawn thief) in
  for i = 0 to n - 1 do
    Deque.push d i;
    if i mod 3 = 0 then
      match Deque.pop d with Some v -> Atomic.incr taken.(v) | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some v ->
        Atomic.incr taken.(v);
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  List.iter Domain.join thieves;
  let bad = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) taken;
  check Alcotest.int "every element taken exactly once" 0 !bad

let test_injector_fifo () =
  let q = Deque.Injector.create () in
  check (Alcotest.option Alcotest.int) "empty" None (Deque.Injector.pop q);
  List.iter (fun i -> Deque.Injector.push q i) [ 1; 2; 3 ];
  check (Alcotest.option Alcotest.int) "fifo 1" (Some 1) (Deque.Injector.pop q);
  Deque.Injector.push q 4;
  check (Alcotest.option Alcotest.int) "fifo 2" (Some 2) (Deque.Injector.pop q);
  check (Alcotest.option Alcotest.int) "fifo 3" (Some 3) (Deque.Injector.pop q);
  check (Alcotest.option Alcotest.int) "fifo 4" (Some 4) (Deque.Injector.pop q);
  check (Alcotest.option Alcotest.int) "drained" None (Deque.Injector.pop q)

let test_injector_concurrent () =
  let q = Deque.Injector.create () in
  let n = 5_000 in
  let producers = 3 in
  let popped = Atomic.make 0 in
  let sum = Atomic.make 0 in
  let producer p () =
    for i = 0 to n - 1 do
      Deque.Injector.push q ((p * n) + i)
    done
  in
  let consumer () =
    while Atomic.get popped < producers * n do
      match Deque.Injector.pop q with
      | Some v ->
          Atomic.incr popped;
          ignore (Atomic.fetch_and_add sum v)
      | None -> Domain.cpu_relax ()
    done
  in
  let ds = List.init producers (fun p -> Domain.spawn (producer p)) in
  let cs = List.init 2 (fun _ -> Domain.spawn consumer) in
  List.iter Domain.join ds;
  List.iter Domain.join cs;
  let total = producers * n in
  check Alcotest.int "count" total (Atomic.get popped);
  check Alcotest.int "sum" (total * (total - 1) / 2) (Atomic.get sum)

(* -- scheduler front door, all three backends ------------------------------- *)

let test_matches_sequential () =
  List.iter
    (fun sched ->
      with_sched sched (fun () ->
          List.iter
            (fun domains ->
              List.iter
                (fun n ->
                  let expected = Array.init n (fun i -> i * i) in
                  let actual = Domain_pool.parallel_init ~domains n (fun i -> i * i) in
                  check (Alcotest.array Alcotest.int)
                    (Printf.sprintf "%s n=%d domains=%d" sched n domains)
                    expected actual)
                [ 0; 1; 2; 7; 100 ])
            [ 1; 2; 4 ]))
    schedulers

let test_every_slot_once () =
  List.iter
    (fun sched ->
      with_sched sched (fun () ->
          let n = 1000 in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          ignore
            (Domain_pool.parallel_init ~domains:4 n (fun i ->
                 Atomic.incr hits.(i);
                 i));
          Array.iteri
            (fun i h -> check Alcotest.int (Printf.sprintf "%s slot %d" sched i) 1 (Atomic.get h))
            hits))
    schedulers

let test_map_list_order () =
  let out = Domain_pool.parallel_map_list ~domains:3 (fun x -> x * 10) [ 1; 2; 3; 4; 5 ] in
  check (Alcotest.list Alcotest.int) "order preserved" [ 10; 20; 30; 40; 50 ] out

let test_exception_propagates () =
  List.iter
    (fun sched ->
      with_sched sched (fun () ->
          List.iter
            (fun domains ->
              Alcotest.check_raises
                (Printf.sprintf "%s raises with %d domains" sched domains)
                Boom
                (fun () ->
                  ignore
                    (Domain_pool.parallel_init ~domains 16 (fun i ->
                         if i = 7 then raise Boom else i))))
            [ 1; 3 ]))
    schedulers

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
    (fun sched ->
      with_sched sched (fun () ->
          check Alcotest.bool
            (sched ^ ": not in a region at top level")
            false
            (Domain_pool.in_parallel_region ());
          (* Each task reports what it saw instead of asserting in
             place: Alcotest's assertion log is not domain-safe, so
             every [check] runs on the calling domain after the join. *)
          let outer =
            Domain_pool.parallel_init ~domains:4 4 (fun i ->
                (* Inline (seq/flat-nested) or forked to the pool
                   (steal), a nested call must see the region flag
                   when the outer call actually fanned out, and must
                   produce Array.init's results either way. *)
                let saw_region = Domain_pool.in_parallel_region () in
                let inner = Domain_pool.parallel_init ~domains:4 8 (fun j -> (10 * i) + j) in
                (saw_region, Array.fold_left ( + ) 0 inner))
          in
          if sched <> "seq" then
            Array.iter
              (fun (saw_region, _) ->
                check Alcotest.bool (sched ^ ": task sees the region flag") true saw_region)
              outer;
          let expected = Array.init 4 (fun i -> (80 * i) + 28) in
          check (Alcotest.array Alcotest.int) (sched ^ ": nested sums") expected
            (Array.map snd outer);
          check Alcotest.bool
            (sched ^ ": region flag restored")
            false
            (Domain_pool.in_parallel_region ())))
    schedulers

let test_both () =
  List.iter
    (fun sched ->
      with_sched sched (fun () ->
          let a, b = Domain_pool.both ~domains:4 (fun () -> 6 * 7) (fun () -> "ok") in
          check Alcotest.int (sched ^ ": both left") 42 a;
          check Alcotest.string (sched ^ ": both right") "ok" b;
          (* Nested fork/join: both inside a parallel region. *)
          let nested =
            Domain_pool.parallel_init ~domains:4 4 (fun i ->
                let x, y = Domain_pool.both ~domains:4 (fun () -> i) (fun () -> 2 * i) in
                x + y)
          in
          check (Alcotest.array Alcotest.int)
            (sched ^ ": nested both")
            (Array.init 4 (fun i -> 3 * i))
            nested;
          Alcotest.check_raises (sched ^ ": both propagates") Boom (fun () ->
              ignore (Domain_pool.both ~domains:4 (fun () -> ()) (fun () -> raise Boom)))))
    schedulers

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

let test_scheduler_knob () =
  List.iter
    (fun (v, expected) ->
      with_sched v (fun () ->
          check Alcotest.bool
            (Printf.sprintf "CKPT_SCHED=%s" v)
            true
            (Domain_pool.scheduler () = expected)))
    [
      ("seq", Domain_pool.Seq);
      ("flat", Domain_pool.Flat);
      ("steal", Domain_pool.Steal);
      ("", Domain_pool.Steal);
      ("bogus", Domain_pool.Steal);
    ]

let test_pool_persists () =
  with_sched "steal" (fun () ->
      ignore (Domain_pool.parallel_init ~domains:4 8 (fun i -> i));
      let after_first = Domain_pool.pool_workers () in
      check Alcotest.bool "pool spawned" true (after_first >= 3);
      ignore (Domain_pool.parallel_init ~domains:4 8 (fun i -> i));
      check Alcotest.int "no respawn on the second region" after_first
        (Domain_pool.pool_workers ());
      ignore (Domain_pool.parallel_init ~domains:6 8 (fun i -> i));
      check Alcotest.bool "pool grows on demand" true (Domain_pool.pool_workers () >= 5))

(* -- properties ------------------------------------------------------------- *)

let prop_matches_array_init =
  QCheck2.Test.make ~name:"parallel_init = Array.init" ~count:50
    QCheck2.Gen.(pair (int_range 0 200) (int_range 1 4))
    (fun (n, domains) ->
      Domain_pool.parallel_init ~domains n (fun i -> (i * 7) mod 13)
      = Array.init n (fun i -> (i * 7) mod 13))

(* Random nesting trees with randomly failing tasks: [steal] must be
   bit-identical to [seq] — same values when nothing fails, and a
   raised [Boom] (early abort included) exactly when [seq] raises. *)
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

let run_spec ~sched ~domains spec =
  with_sched sched (fun () ->
      match eval_spec ~domains spec with
      | v -> Ok v
      | exception Boom -> Error "boom")

let prop_steal_matches_seq =
  QCheck2.Test.make ~name:"steal = seq over random nesting trees" ~count:60
    ~print:print_spec spec_gen
    (fun spec ->
      let reference = run_spec ~sched:"seq" ~domains:1 spec in
      List.for_all
        (fun domains -> run_spec ~sched:"steal" ~domains spec = reference)
        [ 2; 4 ])

let () =
  Alcotest.run "parallel"
    [
      ( "deque",
        [
          Alcotest.test_case "LIFO pop, FIFO steal" `Quick test_deque_lifo_fifo;
          Alcotest.test_case "buffer grows" `Quick test_deque_grows;
          Alcotest.test_case "concurrent steal exactly-once" `Quick test_deque_concurrent_steal;
          Alcotest.test_case "injector FIFO" `Quick test_injector_fifo;
          Alcotest.test_case "injector concurrent" `Quick test_injector_concurrent;
        ] );
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
          Alcotest.test_case "CKPT_SCHED knob" `Quick test_scheduler_knob;
          Alcotest.test_case "pool persists and grows" `Quick test_pool_persists;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_matches_array_init; prop_steal_matches_seq ]
      );
    ]
