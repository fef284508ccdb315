module Metrics = Ckpt_telemetry.Metrics
module Span = Ckpt_telemetry.Span

let inline_sweeps = Metrics.counter "domain_pool/inline_sweeps"
let domains_spawned = Metrics.counter "domain_pool/domains_spawned"
let early_aborts = Metrics.counter "domain_pool/early_aborts"
let recommended_domains = Ckpt_telemetry.Provenance.domain_count

(* -- the pool ---------------------------------------------------------------- *)

(* Worker domains are spawned once, wait on the pool's condition
   variable when idle, and serve every region for the life of the
   process.

   A *region* is one [parallel_init] call.  Its items are claimed from
   an atomic counter, so each output slot is written by exactly one
   task and helpers come and go at item granularity.  A region stays
   in the pool's list until its last item is claimed; its [seats]
   bound how many domains besides the forker may help.  A task that
   itself calls [parallel_init] publishes a nested region at the head
   of the list, and domains take the newest region first: nested work
   drains before more outer items start, which bounds the live work
   (and memory), and the domains a narrow outer sweep leaves idle help
   its nested regions. *)
type region = {
  n : int;
  next : int Atomic.t;  (* next unclaimed item *)
  completed : int Atomic.t;  (* claimed items that have finished (ran or skipped) *)
  mutable seats : int;  (* helpers still admitted; under the pool lock *)
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
  run_item : int -> unit;
}

let finished r = Atomic.get r.completed >= r.n

(* Every mutable field is guarded by [lock].  [cond] is broadcast when
   a region is published, when a region's last item completes, and at
   shutdown; each waiter checks its predicate under [lock] before
   waiting, so no wakeup is lost. *)
type pool = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable regions : region list;  (* live regions, newest first *)
  mutable workers : int;
  mutable spawned : unit Domain.t list;
  mutable stop : bool;
}

(* Every domain's scheduler states are [parallel.sched] spans (the
   [run-task] and [publish] counts are the task and region counts).  Leaf
   states are stamped before and recorded after; [stamp] is [None]
   while recording is off. *)
let sched = "parallel.sched"
let stamp () = if Span.enabled () then Some (Span.now ()) else None

let span state = function
  | Some t0 -> Span.record ~layer:sched state ~t0 ~t1:(Span.now ())
  | None -> ()

let broadcast p =
  Mutex.lock p.lock;
  Condition.broadcast p.cond;
  Mutex.unlock p.lock

(* Claim-and-run loop.  [stop] lets a joiner lending a hand to another
   region leave it between items the moment its own region completes;
   items it leaves are claimed by that region's other domains, its
   forker's own drain included. *)
let drain ?(stop = Fun.const false) ?(state = "run-task") p r =
  let rec loop () =
    if not (stop ()) then begin
      let i = Atomic.fetch_and_add r.next 1 in
      if i < r.n then begin
        if Option.is_none (Atomic.get r.error) then
          (* An item's own spans nest inside this one. *)
          Span.time ~layer:sched state (fun () -> r.run_item i)
        else Metrics.incr early_aborts;
        if Atomic.fetch_and_add r.completed 1 = r.n - 1 then broadcast p;
        loop ()
      end
    end
  in
  loop ()

(* Under [p.lock]: forget regions with nothing left to claim, then take
   a seat in the newest region that still has one. *)
let take p =
  p.regions <- List.filter (fun r -> Atomic.get r.next < r.n) p.regions;
  match List.find_opt (fun r -> r.seats > 0) p.regions with
  | Some r ->
      r.seats <- r.seats - 1;
      Some r
  | None -> None

(* Take a region, waiting on the condition while there is none, unless
   [give_up ()] holds (checked under the lock before every wait). *)
let find p ~give_up () =
  let t0 = stamp () in
  Mutex.lock p.lock;
  let rec loop t0 =
    if give_up () then None
    else begin
      match take p with
      | Some _ as r ->
          span "scan-hit" t0;
          r
      | None ->
          span "scan-miss" t0;
          let parked = stamp () in
          Condition.wait p.cond p.lock;
          span "park" parked;
          let woken = stamp () in
          Option.iter (fun t -> Span.record ~layer:sched "unpark" ~t0:t ~t1:t) woken;
          loop woken
    end
  in
  let r = loop t0 in
  Mutex.unlock p.lock;
  r

let worker_main p id () =
  Span.name_track (Printf.sprintf "worker%d" id);
  let rec loop () =
    match find p ~give_up:(fun () -> p.stop) () with
    | Some r ->
        drain p r;
        loop ()
    | None -> ()
  in
  loop ()

let shutdown p =
  Mutex.lock p.lock;
  p.stop <- true;
  Condition.broadcast p.cond;
  let spawned = p.spawned in
  p.spawned <- [];
  Mutex.unlock p.lock;
  List.iter Domain.join spawned

(* Mutex-guarded memo, not [lazy]: concurrently forcing a lazy from two
   domains raises [CamlinternalLazy.Undefined], and nothing stops two
   caller-spawned domains from entering their first region at once. *)
let pool_lock = Mutex.create ()
let pool_memo = ref None

let pool () =
  Mutex.protect pool_lock (fun () ->
      match !pool_memo with
      | Some p -> p
      | None ->
          let p =
            {
              lock = Mutex.create ();
              cond = Condition.create ();
              regions = [];
              workers = 0;
              spawned = [];
              stop = false;
            }
          in
          (* Workers wait on the condition between regions; wake and
             join them at exit so the process never tears down under a
             domain mid-wait. *)
          at_exit (fun () -> shutdown p);
          pool_memo := Some p;
          p)

(* [Domain.spawn] has a hard runtime cap; leave headroom for the main
   domain and any domains the caller spawned itself. *)
let max_workers = 112

(* Grow the pool to [workers] (never shrinking), then put [r] at the
   head of the region list and wake everyone. *)
let publish p ~workers r =
  let t0 = stamp () in
  Mutex.lock p.lock;
  while p.workers < min workers max_workers do
    (match Domain.spawn (worker_main p p.workers) with
    | d ->
        Metrics.incr domains_spawned;
        p.spawned <- d :: p.spawned
    | exception _ -> (* Out of domains: run narrower. *) ());
    p.workers <- p.workers + 1
  done;
  p.regions <- r :: p.regions;
  Condition.broadcast p.cond;
  Mutex.unlock p.lock;
  span "publish" t0

(* Fork [n] items, drain them, then join: until the region's last item
   completes, help whichever region [find] offers (leaving it as soon
   as our own completes), and otherwise wait. *)
let pool_parallel_init ~domains n f =
  let p = pool () in
  let results = Array.make n None in
  let error = Atomic.make None in
  let run_item i =
    match f i with
    | v -> results.(i) <- Some v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set error None (Some (e, bt)))
  in
  let r =
    {
      n;
      next = Atomic.make 0;
      completed = Atomic.make 0;
      seats = min (domains - 1) (n - 1);
      error;
      run_item;
    }
  in
  publish p ~workers:(domains - 1) r;
  drain p r;
  let own_done () = finished r in
  let rec join () =
    match find p ~give_up:own_done () with
    | Some other ->
        drain ~stop:own_done ~state:"join-help" p other;
        join ()
    | None -> ()
  in
  join ();
  (match Atomic.get error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.map Option.get results

let pool_workers () =
  match Mutex.protect pool_lock (fun () -> !pool_memo) with
  | Some p -> Mutex.protect p.lock (fun () -> p.workers)
  | None -> 0

(* -- front door -------------------------------------------------------------- *)

let parallel_init ?domains n f =
  if n < 0 then invalid_arg "Domain_pool.parallel_init: negative size";
  let domains = match domains with Some d -> d | None -> recommended_domains () in
  if domains <= 1 || n <= 1 then begin
    Metrics.incr inline_sweeps;
    Array.init n f
  end
  else pool_parallel_init ~domains n f

let parallel_map_list ?domains f items =
  let arr = Array.of_list items in
  Array.to_list (parallel_init ?domains (Array.length arr) (fun i -> f arr.(i)))

(* -- utilization ------------------------------------------------------------- *)

type utilization = {
  domain : string;
  wall : float;
  attributed : float;
  states : Span.total list;
  dropped : int;
}

let utilization () =
  List.filter_map
    (fun (t : Span.track) ->
      match List.filter (fun (x : Span.total) -> x.layer = sched) t.totals with
      | [] -> None
      | states ->
          let fold f init = List.fold_left f init states in
          let first = fold (fun a x -> Float.min a x.Span.first) infinity in
          let last = fold (fun a x -> Float.max a x.Span.last) neg_infinity in
          let attributed = fold (fun a x -> a +. x.Span.seconds) 0. in
          Some { domain = t.track; wall = last -. first; attributed; states; dropped = t.dropped })
    (Span.tracks ())

let state_total f init us name =
  List.fold_left
    (fun acc u ->
      List.fold_left (fun acc (x : Span.total) -> if x.name = name then f acc x else acc) acc u.states)
    init us

let state_seconds = state_total (fun a x -> a +. x.Span.seconds) 0.
let state_count = state_total (fun a x -> a + x.Span.count) 0

(* The three candidate explanations for pool overhead, summed across
   domains: looking for a region and finding none, parking (plus the
   wake-ups), and putting a new region on the list. *)
let overheads us =
  [
    ("empty scans", state_seconds us "scan-miss", state_count us "scan-miss");
    ("parking churn", state_seconds us "park", state_count us "park" + state_count us "unpark");
    ("queue publication", state_seconds us "publish", state_count us "publish");
  ]
  |> List.stable_sort (fun (_, a, _) (_, b, _) -> Float.compare b a)
