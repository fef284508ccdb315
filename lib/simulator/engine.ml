module Job = Ckpt_policies.Job
module Policy = Ckpt_policies.Policy
module Trace_set = Ckpt_failures.Trace_set
module Tracer = Ckpt_telemetry.Tracer
module Metrics = Ckpt_telemetry.Metrics
module Age_summary = Ckpt_core.Age_summary

(* Keyed by processor; the identity hash avoids a C call per lookup. *)
module Int_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = p land max_int
end)

(* Stripe occupancy per lockstep round; fills under CKPT_METRICS=1 and
   surfaces in `ckpt stats` and the OpenMetrics textfile. *)
let batch_live_slots = Metrics.histogram "engine/batch_live_slots"

type metrics = {
  makespan : float;
  useful_work : float;
  checkpoint_time : float;
  wasted_time : float;
  recovery_time : float;
  stall_time : float;
  failures : int;
  chunks : int;
  min_chunk : float;
  max_chunk : float;
}

type outcome = Completed of metrics | Policy_failed of { at_time : float; remaining : float }

exception Accounting_violation of string

(* Every advance of the simulated clock is matched by an accumulator
   add of the same computed quantity, so the waste decomposition
   partitions the makespan by construction — up to one rounding per
   float operation.  The residual is checked on every completed run
   against a tolerance of one ulp (at the clock's magnitude) per
   accounting operation: at most ~4 roundings per committed chunk
   (chunk and checkpoint additions on both the clock and accumulator
   sides) and ~8 per failure (waste, downtime, recovery, cascades),
   doubled for headroom.  A residual beyond that means time was
   mis-attributed, not rounded. *)
let accounting_components m =
  m.useful_work +. m.checkpoint_time +. m.wasted_time +. m.recovery_time +. m.stall_time

let accounting_residual m = Float.abs (m.makespan -. accounting_components m)

let accounting_tolerance ?clock m =
  let clock = match clock with Some c -> c | None -> m.makespan in
  let scale = Float.max 1. (Float.max (Float.abs clock) (Float.abs m.makespan)) in
  let ulp = Float.succ scale -. scale in
  float_of_int ((8 * (m.chunks + m.failures)) + 64) *. ulp

let check_accounting ~clock m =
  let residual = accounting_residual m and tol = accounting_tolerance ~clock m in
  if not (residual <= tol) then
    raise
      (Accounting_violation
         (Printf.sprintf
            "makespan %.17g != useful %.17g + checkpoint %.17g + wasted %.17g + recovery %.17g \
             + stall %.17g (residual %.3g, tolerance %.3g, %d chunks, %d failures)"
            m.makespan m.useful_work m.checkpoint_time m.wasted_time m.recovery_time
            m.stall_time residual tol m.chunks m.failures));
  m

(* A processor's lifetime start after a failure during the run: the
   end of that failure's downtime.  Updated in place, unboxed. *)
type restart = { mutable at : float }

(* Structure-of-arrays state of a stripe of executions stepped in
   lockstep: index [k] of every array is one slot — one execution on
   its own trace set.  The float accumulators live in unboxed float
   arrays (a mixed mutable record would box every float store).

   Nothing of size p is allocated per slot unless its policy consults
   the platform ages: a slot's lifetime starts are the shared template
   [births] overlaid with the run's few [restarts].  The age ledger is
   created on the slot's first [summarize] call: [Incremental.summarize]
   depends only on the current birth multiset, so a ledger created
   mid-run answers bit-identically to one maintained from the start,
   and slots whose policy never consults the ages (the periodic
   family, the lower bound) skip the O(p log p) sort. *)
type state = {
  job : Job.t;
  start_time : float;
  trace : Tracer.buffer array option;
      (* one buffer per slot; when tracing, every phase transition
         below also emits a typed event — the disabled path is one
         match per site. *)
  now : float array;
  remaining : float array;
  useful : float array;
  checkpoint : float array;
  wasted : float array;
  recovery : float array;
  stall : float array;
  last_failure_ref : float array;
      (* reference instant of the most recent platform failure's new
         lifetime (max over lifetime); min age = now - this. *)
  min_chunk : float array;
  max_chunk : float array;
  failures : int array;
  chunks : int array;
  event_index : int array;
  events : (float * int) array array;  (* merged (date, processor), shared with the trace sets *)
  births : float array array;
      (* per slot, per processor: the lifetime start at [start_time];
         shared with the caller, never mutated. *)
  restarts : restart Int_table.t array;
      (* per slot: the current lifetime start of each processor that
         failed during the run, which is also the end of its latest
         downtime.  Sparse: a run sees far fewer failures than there
         are processors. *)
  ages : Age_summary.Incremental.t option array;  (* lazy *)
}

let make_state ?trace ?initial_births ~scenario traces =
  let width = Array.length traces in
  let check_width what n =
    if n <> width then invalid_arg (Printf.sprintf "Engine.run_stripe: %s width mismatch" what)
  in
  Option.iter (fun b -> check_width "trace" (Array.length b)) trace;
  Option.iter (fun b -> check_width "initial_births" (Array.length b)) initial_births;
  let job = scenario.Scenario.job in
  let start_time = scenario.Scenario.start_time in
  let births =
    match initial_births with
    | Some b -> b
    | None -> Array.map (Scenario.initial_lifetime_starts scenario) traces
  in
  {
    job;
    start_time;
    trace;
    now = Array.make width start_time;
    remaining = Array.make width job.Job.work_time;
    useful = Array.make width 0.;
    checkpoint = Array.make width 0.;
    wasted = Array.make width 0.;
    recovery = Array.make width 0.;
    stall = Array.make width 0.;
    last_failure_ref = Array.map (Array.fold_left Float.max neg_infinity) births;
    min_chunk = Array.make width 0.;
    max_chunk = Array.make width 0.;
    failures = Array.make width 0;
    chunks = Array.make width 0;
    event_index = Array.map (fun tr -> Trace_set.next_event_index tr ~after:start_time) traces;
    events = Array.map Trace_set.events traces;
    births;
    restarts = Array.init width (fun _ -> Int_table.create 16);
    ages = Array.make width None;
  }

let lifetime_start st k proc =
  match Int_table.find st.restarts.(k) proc with
  | r -> r.at
  | exception Not_found -> st.births.(k).(proc)

(* Whether [proc] is still in the downtime of a failure registered
   during the run.  Every such downtime ends by [last_failure_ref], so
   later events need no lookup. *)
let in_downtime st k proc date =
  date < st.last_failure_ref.(k)
  &&
  match Int_table.find st.restarts.(k) proc with
  | r -> date < r.at
  | exception Not_found -> false

(* First effective failure of slot [k] strictly before [before],
   skipping (and consuming) failures absorbed by their own processor's
   downtime.  Does not consume the effective event it reports. *)
let peek st k ~before =
  let events = st.events.(k) in
  let n = Array.length events in
  let rec scan () =
    let i = st.event_index.(k) in
    if i >= n then None
    else begin
      let date, proc = events.(i) in
      if date >= before then None
      else if in_downtime st k proc date then begin
        st.event_index.(k) <- i + 1;
        scan ()
      end
      else Some (date, proc)
    end
  in
  scan ()

let consume st k = st.event_index.(k) <- st.event_index.(k) + 1

(* Register the failure of [proc] at [date]: downtime, lifetime
   restart, and cascading failures of other processors until every
   processor is simultaneously available.  Returns the instant at
   which the platform is whole again. *)
let rec settle_downtime st k ~date ~proc =
  let d = Job.downtime st.job in
  (match st.trace with
  | Some b -> Tracer.emit b.(k) (Tracer.Failure { at = date; proc })
  | None -> ());
  st.failures.(k) <- st.failures.(k) + 1;
  (match st.ages.(k) with
  | Some inc ->
      Age_summary.Incremental.update inc ~old_birth:(lifetime_start st k proc)
        ~new_birth:(date +. d)
  | None -> ());
  (match Int_table.find st.restarts.(k) proc with
  | r -> r.at <- date +. d
  | exception Not_found -> Int_table.add st.restarts.(k) proc { at = date +. d });
  st.last_failure_ref.(k) <- Float.max st.last_failure_ref.(k) (date +. d);
  let ready = date +. d in
  match peek st k ~before:ready with
  | None -> ready
  | Some (date', proc') ->
      consume st k;
      Float.max ready (settle_downtime st k ~date:date' ~proc:proc')

(* Handle a failure hitting at [date] while slot [k] was busy
   (execution or checkpointing, attributed as waste), then perform the
   recovery — cost [r] — which may itself be struck.  On return,
   [st.now.(k)] is the instant the job can resume computing. *)
let handle_failure st k ~date ~proc ~r =
  let rec recover ready =
    (match st.trace with
    | Some b ->
        Tracer.emit b.(k) (Tracer.Downtime { t0 = st.now.(k); t1 = ready });
        Tracer.emit b.(k) (Tracer.Recovery_start { at = ready })
    | None -> ());
    st.stall.(k) <- st.stall.(k) +. (ready -. st.now.(k));
    st.now.(k) <- ready;
    match peek st k ~before:(ready +. r) with
    | None ->
        (match st.trace with
        | Some b ->
            Tracer.emit b.(k) (Tracer.Recovery_complete { t0 = ready; t1 = ready +. r; cost = r })
        | None -> ());
        st.recovery.(k) <- st.recovery.(k) +. r;
        st.now.(k) <- ready +. r
    | Some (date', proc') ->
        consume st k;
        (match st.trace with
        | Some b -> Tracer.emit b.(k) (Tracer.Recovery_abort { t0 = ready; t1 = date' })
        | None -> ());
        st.recovery.(k) <- st.recovery.(k) +. (date' -. ready);
        st.now.(k) <- date';
        recover (settle_downtime st k ~date:date' ~proc:proc')
  in
  consume st k;
  (match st.trace with
  | Some b -> Tracer.emit b.(k) (Tracer.Waste { t0 = st.now.(k); t1 = date })
  | None -> ());
  st.wasted.(k) <- st.wasted.(k) +. (date -. st.now.(k));
  st.now.(k) <- date;
  recover (settle_downtime st k ~date ~proc)

(* Commit a [chunk] of work followed by its checkpoint of cost [c]. *)
let commit st k ~chunk ~c =
  let t0 = st.now.(k) in
  (match st.trace with
  | Some b ->
      Tracer.emit b.(k) (Tracer.Chunk_commit { t0; t1 = t0 +. chunk; work = chunk });
      Tracer.emit b.(k) (Tracer.Checkpoint { t0 = t0 +. chunk; t1 = t0 +. chunk +. c; cost = c })
  | None -> ());
  st.now.(k) <- t0 +. chunk +. c;
  st.remaining.(k) <- st.remaining.(k) -. chunk;
  st.useful.(k) <- st.useful.(k) +. chunk;
  st.checkpoint.(k) <- st.checkpoint.(k) +. c;
  st.chunks.(k) <- st.chunks.(k) + 1;
  if st.chunks.(k) = 1 then begin
    st.min_chunk.(k) <- chunk;
    st.max_chunk.(k) <- chunk
  end
  else begin
    st.min_chunk.(k) <- Float.min st.min_chunk.(k) chunk;
    st.max_chunk.(k) <- Float.max st.max_chunk.(k) chunk
  end

let metrics_of st k =
  check_accounting ~clock:st.now.(k)
    {
      makespan = st.now.(k) -. st.start_time;
      useful_work = st.useful.(k);
      checkpoint_time = st.checkpoint.(k);
      wasted_time = st.wasted.(k);
      recovery_time = st.recovery.(k);
      stall_time = st.stall.(k);
      failures = st.failures.(k);
      chunks = st.chunks.(k);
      min_chunk = st.min_chunk.(k);
      max_chunk = st.max_chunk.(k);
    }

let work_epsilon = 1e-6

(* One reusable observation per slot, its closures bound to that slot
   once — nothing is allocated per decision. *)
let observation st k =
  let units = Array.length st.births.(k) in
  let iter_ages f =
    for proc = 0 to units - 1 do
      f (Float.max 0. (st.now.(k) -. lifetime_start st k proc))
    done
  in
  let summarize ~nexact ~napprox dist =
    let inc =
      match st.ages.(k) with
      | Some inc -> inc
      | None ->
          let births = Array.init units (lifetime_start st k) in
          let inc = Age_summary.Incremental.create ~births in
          st.ages.(k) <- Some inc;
          inc
    in
    Age_summary.Incremental.summarize ~nexact ~napprox inc dist ~now:st.now.(k)
  in
  {
    Policy.phase = Policy.Start;
    remaining = st.remaining.(k);
    failure_units = units;
    min_age = 0.;
    iter_ages;
    summarize;
  }

let run_stripe ?trace ?cost_profile ?initial_births ~scenario ~traces ~policy () =
  let st = make_state ?trace ?initial_births ~scenario traces in
  let width = Array.length traces in
  let constant_c = Job.checkpoint_cost st.job in
  let constant_r = Job.recovery_cost st.job in
  let work_time = st.job.Job.work_time in
  let progress remaining = Float.max 0. (Float.min 1. (1. -. (remaining /. work_time))) in
  let obs = Array.init width (observation st) in
  let instances = Array.init width (fun _ -> policy.Policy.instantiate ()) in
  (* One policy decision and chunk attempt for slot [k]; [Some outcome]
     once the slot is done. *)
  let step k =
    let remaining = st.remaining.(k) in
    if remaining <= work_epsilon then Some (Completed (metrics_of st k))
    else begin
      let o = obs.(k) in
      o.Policy.remaining <- remaining;
      o.Policy.min_age <- Float.max 0. (st.now.(k) -. st.last_failure_ref.(k));
      match instances.(k) o with
      | None -> Some (Policy_failed { at_time = st.now.(k); remaining })
      | Some chunk ->
          let chunk =
            let c' = Policy.clamp_chunk ~remaining chunk in
            if c' < work_epsilon then remaining else c'
          in
          (* Checkpoint cost at the progress the chunk ends at; recovery
             cost at the progress being protected (the last committed
             checkpoint). *)
          let c =
            match cost_profile with
            | None -> constant_c
            | Some f -> fst (f ~progress:(progress (remaining -. chunk)))
          in
          let r =
            match cost_profile with
            | None -> constant_r
            | Some f -> snd (f ~progress:(progress remaining))
          in
          let now = st.now.(k) in
          (match st.trace with
          | Some b ->
              Tracer.emit b.(k) (Tracer.Decision { at = now; chunk; remaining });
              Tracer.emit b.(k) (Tracer.Chunk_start { at = now; work = chunk })
          | None -> ());
          (match peek st k ~before:(now +. chunk +. c) with
          | None ->
              commit st k ~chunk ~c;
              o.Policy.phase <- Policy.After_checkpoint
          | Some (date, proc) ->
              handle_failure st k ~date ~proc ~r;
              o.Policy.phase <- Policy.After_recovery);
          None
    end
  in
  let results = Array.make width None in
  (* Lockstep rounds over the live slots, one decision + chunk attempt
     per slot per round.  A slot that completes (or whose policy
     declines) is swapped out of the live prefix, so stragglers keep
     stepping without scanning finished slots. *)
  let live = Array.init width Fun.id in
  let nlive = ref width in
  while !nlive > 0 do
    Metrics.observe batch_live_slots (float_of_int !nlive);
    let i = ref 0 in
    while !i < !nlive do
      let k = live.(!i) in
      match step k with
      | None -> incr i
      | Some _ as outcome ->
          results.(k) <- outcome;
          live.(!i) <- live.(!nlive - 1);
          decr nlive
    done
  done;
  Array.map Option.get results

let run ?trace ?cost_profile ~scenario ~traces ~policy () =
  let trace = Option.map (fun b -> [| b |]) trace in
  (run_stripe ?trace ?cost_profile ~scenario ~traces:[| traces |] ~policy ()).(0)

(* The omniscient bound knows every failure date: it checkpoints
   exactly [C] ahead of each, or idles when too close to save
   anything.  An oracle, not a policy — its own decision rule over
   slot 0 of the stripe state. *)
let lower_bound ?trace ~scenario ~traces () =
  let st = make_state ?trace:(Option.map (fun b -> [| b |]) trace) ~scenario [| traces |] in
  let c = Job.checkpoint_cost st.job in
  while st.remaining.(0) > work_epsilon do
    match peek st 0 ~before:infinity with
    | Some (date, proc) when st.remaining.(0) +. c > date -. st.now.(0) ->
        let available = date -. st.now.(0) in
        if available > c then
          (* Work as much as possible, checkpointing just in time: the
             checkpoint commits exactly when the failure hits. *)
          commit st 0 ~chunk:(available -. c) ~c
        else begin
          (* Too close to the failure to save anything: idle. *)
          (match st.trace with
          | Some b -> Tracer.emit b.(0) (Tracer.Waste { t0 = st.now.(0); t1 = date })
          | None -> ());
          st.wasted.(0) <- st.wasted.(0) +. available
        end;
        st.now.(0) <- date;
        handle_failure st 0 ~date ~proc ~r:(Job.recovery_cost st.job)
    | Some _ | None ->
        (* Failure-free to the horizon, or the job finishes before the
           next failure strikes: one last chunk. *)
        commit st 0 ~chunk:st.remaining.(0) ~c
  done;
  metrics_of st 0
