module Job = Ckpt_policies.Job
module Trace = Ckpt_failures.Trace
module Trace_set = Ckpt_failures.Trace_set
module Units = Ckpt_platform.Units
module Metrics = Ckpt_telemetry.Metrics

(* Registry mirrors of the per-scenario cache stats, aggregated over
   every scenario in the process. *)
let cache_hits = Metrics.counter "scenario/trace_cache_hits"
let cache_misses = Metrics.counter "scenario/trace_cache_misses"
let traces_generated = Metrics.counter "scenario/traces_generated"

(* Generated trace sets are pure functions of (scenario, replicate),
   and several consumers ask for the same ones — the period search
   scores every candidate on one tuning set, policy sweeps re-run the
   same replicates per policy — so each scenario carries a bounded
   FIFO cache of 64 sets.  The cache is shared across domains (the
   evaluation harness fans replicates out); a single lock would
   serialize every replicate of a concurrently-evaluated table behind
   one mutex, so it is sharded into 16 stripes of 4 sets, locked
   separately (replicate mod 16), and concurrent replicates only
   contend when they hash to the same stripe.  Generation itself runs
   outside the locks, so a race at worst regenerates a set that is
   bit-identical anyway. *)
type stripe = {
  lock : Mutex.t;
  table : (int, Trace_set.t) Hashtbl.t;
  order : int Queue.t;
  mutable hits : int;
  mutable misses : int;
}

type cache = { stripes : stripe array }

let stripes = 16
let stripe_capacity = 4

let create_cache () =
  {
    stripes =
      Array.init stripes (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 16;
            order = Queue.create ();
            hits = 0;
            misses = 0;
          });
  }

type t = {
  job : Job.t;
  seed : int64;
  horizon : float;
  start_time : float;
  cache : cache;
}

let create ?(seed = 0x5EEDL) ?horizon ?start_time job =
  let single = job.Job.processors = 1 in
  let horizon =
    match horizon with Some h -> h | None -> if single then Units.of_years 1. else Units.of_years 11.
  in
  let start_time =
    match start_time with Some s -> s | None -> if single then 0. else Units.of_years 1.
  in
  if start_time < 0. || start_time >= horizon then
    invalid_arg "Scenario.create: start_time outside [0, horizon)";
  { job; seed; horizon; start_time; cache = create_cache () }

let generate t ~replicate =
  Metrics.incr traces_generated;
  Trace_set.generate ~seed:t.seed ~replicate t.job.Job.dist
    ~processors:(Job.failure_units t.job) ~horizon:t.horizon

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* One trace per failure unit. *)
let traces t ~replicate =
  let s = t.cache.stripes.(abs (replicate mod stripes)) in
  match
    locked s (fun () ->
        match Hashtbl.find_opt s.table replicate with
        | Some v ->
            s.hits <- s.hits + 1;
            Metrics.incr cache_hits;
            Some v
        | None ->
            s.misses <- s.misses + 1;
            Metrics.incr cache_misses;
            None)
  with
  | Some v -> v
  | None ->
      let v = generate t ~replicate in
      locked s (fun () ->
          if not (Hashtbl.mem s.table replicate) then begin
            if Hashtbl.length s.table >= stripe_capacity then
              Hashtbl.remove s.table (Queue.pop s.order);
            Hashtbl.add s.table replicate v;
            Queue.push replicate s.order
          end);
      v

let cache_stats t =
  Array.fold_left
    (fun (hits, misses) s -> locked s (fun () -> (hits + s.hits, misses + s.misses)))
    (0, 0) t.cache.stripes

let initial_lifetime_starts t traces =
  let d = Job.downtime t.job in
  Array.init (Trace_set.processors traces) (fun i ->
      match Trace.last_failure_before (Trace_set.trace traces i) t.start_time with
      | None -> 0.
      | Some f -> f +. d)
