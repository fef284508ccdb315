(* Typed execution tracing for the simulation engine.

   The engine emits one event per simulated phase transition — chunk
   start/commit, checkpoint, failure, downtime, recovery
   start/abort/complete, policy decision — into a per-execution ring
   buffer.  Timestamps are *simulated* seconds (the engine's clock),
   and durations reconcile bit-for-bit with [Engine.metrics]:

     useful_work     = sum of Chunk_commit work
     checkpoint_time = sum of Checkpoint costs
     wasted_time     = sum of Waste spans
     recovery_time   = sum of Recovery_abort spans + Recovery_complete costs
     stall_time      = sum of Downtime spans

   Checkpoint and Recovery_complete carry the engine's cost operand
   alongside the span because [t1 -. t0] re-rounds through the running
   clock: [(now +. chunk +. c) -. (now +. chunk)] is not always [c].
   [totals] folds the same operands in the same order as the engine's
   accumulators, so equality is exact, not epsilon
   (asserted by test/test_simulator.ml).

   Tracing is off by default: the engine's fast path is one [match] on
   an option per emission site, and only a caller that hands the engine
   a buffer ([ckpt trace], [ckpt explain], tests) records anything. *)

type event =
  | Decision of { at : float; chunk : float; remaining : float }
  | Chunk_start of { at : float; work : float }
  | Chunk_commit of { t0 : float; t1 : float; work : float }
  | Checkpoint of { t0 : float; t1 : float; cost : float }
  | Failure of { at : float; proc : int }
  | Waste of { t0 : float; t1 : float }
  | Downtime of { t0 : float; t1 : float }
  | Recovery_start of { at : float }
  | Recovery_abort of { t0 : float; t1 : float }
  | Recovery_complete of { t0 : float; t1 : float; cost : float }

(* -- ring buffers --------------------------------------------------------- *)

type buffer = {
  name : string;
  events : event array;
  capacity : int;
  mutable length : int;  (* events currently stored, <= capacity *)
  mutable head : int;  (* next write position *)
  mutable dropped : int;  (* events overwritten after the ring filled *)
}

let sentinel = Failure { at = nan; proc = -1 }

let create_buffer ?(capacity = 65_536) ~name () =
  if capacity <= 0 then invalid_arg "Tracer.create_buffer: capacity must be positive";
  { name; events = Array.make capacity sentinel; capacity; length = 0; head = 0; dropped = 0 }

let length b = b.length
let dropped b = b.dropped

(* A buffer is owned by the single engine run writing to it; no lock. *)
let emit b e =
  b.events.(b.head) <- e;
  b.head <- (b.head + 1) mod b.capacity;
  if b.length < b.capacity then b.length <- b.length + 1 else b.dropped <- b.dropped + 1

let to_list b =
  let start = (b.head - b.length + b.capacity) mod b.capacity in
  List.init b.length (fun i -> b.events.((start + i) mod b.capacity))

let clear b =
  b.length <- 0;
  b.head <- 0;
  b.dropped <- 0

(* -- per-buffer totals (the reconciliation view) -------------------------- *)

type totals = {
  work : float;
  checkpoint : float;
  waste : float;
  recovery : float;
  downtime : float;
  failures : int;
  chunks : int;
  decisions : int;
}

let zero_totals =
  {
    work = 0.;
    checkpoint = 0.;
    waste = 0.;
    recovery = 0.;
    downtime = 0.;
    failures = 0;
    chunks = 0;
    decisions = 0;
  }

let totals b =
  List.fold_left
    (fun t e ->
      match e with
      | Decision _ -> { t with decisions = t.decisions + 1 }
      | Chunk_start _ -> t
      | Chunk_commit { work; _ } -> { t with work = t.work +. work; chunks = t.chunks + 1 }
      | Checkpoint { cost; _ } -> { t with checkpoint = t.checkpoint +. cost }
      | Failure _ -> { t with failures = t.failures + 1 }
      | Waste { t0; t1 } -> { t with waste = t.waste +. (t1 -. t0) }
      | Downtime { t0; t1 } -> { t with downtime = t.downtime +. (t1 -. t0) }
      | Recovery_start _ -> t
      | Recovery_abort { t0; t1 } -> { t with recovery = t.recovery +. (t1 -. t0) }
      | Recovery_complete { cost; _ } -> { t with recovery = t.recovery +. cost })
    zero_totals (to_list b)

(* -- rendering ------------------------------------------------------------ *)

let pp_event fmt = function
  | Decision { at; chunk; remaining } ->
      Format.fprintf fmt "%12.1f  decision          chunk %g s (%g s remaining)" at chunk remaining
  | Chunk_start { at; work } -> Format.fprintf fmt "%12.1f  chunk-start       %g s of work" at work
  | Chunk_commit { t0; t1; work } ->
      Format.fprintf fmt "%12.1f  chunk-commit      %g s of work done at %g" t0 work t1
  | Checkpoint { t0; cost; _ } -> Format.fprintf fmt "%12.1f  checkpoint        %g s" t0 cost
  | Failure { at; proc } -> Format.fprintf fmt "%12.1f  FAILURE           processor %d" at proc
  | Waste { t0; t1 } -> Format.fprintf fmt "%12.1f  waste             %g s destroyed" t0 (t1 -. t0)
  | Downtime { t0; t1 } -> Format.fprintf fmt "%12.1f  downtime          %g s stalled" t0 (t1 -. t0)
  | Recovery_start { at } -> Format.fprintf fmt "%12.1f  recovery-start" at
  | Recovery_abort { t0; t1 } ->
      Format.fprintf fmt "%12.1f  recovery-abort    %g s lost" t0 (t1 -. t0)
  | Recovery_complete { t0; cost; _ } ->
      Format.fprintf fmt "%12.1f  recovery-complete %g s" t0 cost

let pp_timeline ?limit fmt b =
  let events = to_list b in
  let n = List.length events in
  let limit = match limit with Some l -> l | None -> n in
  Format.fprintf fmt "trace %s: %d events%s@." b.name n
    (if b.dropped > 0 then Printf.sprintf " (+%d dropped by the ring)" b.dropped else "");
  List.iteri (fun i e -> if i < limit then Format.fprintf fmt "%a@." pp_event e) events;
  if n > limit then Format.fprintf fmt "  ... (%d more)@." (n - limit);
  let t = totals b in
  Format.fprintf fmt
    "totals: work %.1f s, checkpoint %.1f s, waste %.1f s, recovery %.1f s, downtime %.1f s, \
     %d failures, %d chunks@."
    t.work t.checkpoint t.waste t.recovery t.downtime t.failures t.chunks

(* -- export --------------------------------------------------------------- *)

(* An event's export view: its JSONL kind, its Chrome name, its start,
   its end ([None] for an instant) and its other fields. *)
let view = function
  | Decision { at; chunk; remaining } ->
      ("decision", "decision", at, None, [ ("chunk", chunk); ("remaining", remaining) ])
  | Chunk_start { at; work } -> ("chunk-start", "chunk-start", at, None, [ ("work", work) ])
  | Chunk_commit { t0; t1; work } -> ("chunk-commit", "work", t0, Some t1, [ ("work", work) ])
  | Checkpoint { t0; t1; cost } -> ("checkpoint", "checkpoint", t0, Some t1, [ ("cost", cost) ])
  | Failure { at; proc } -> ("failure", "failure", at, None, [ ("proc", float_of_int proc) ])
  | Waste { t0; t1 } -> ("waste", "waste", t0, Some t1, [])
  | Downtime { t0; t1 } -> ("downtime", "downtime", t0, Some t1, [])
  | Recovery_start { at } -> ("recovery-start", "recovery-start", at, None, [])
  | Recovery_abort { t0; t1 } -> ("recovery-abort", "recovery-abort", t0, Some t1, [])
  | Recovery_complete { t0; t1; cost } ->
      ("recovery-complete", "recovery", t0, Some t1, [ ("cost", cost) ])

let nums = List.map (fun (k, v) -> (k, Json.Num v))

let jsonl_line ~buffer_name e =
  let kind, _, t0, t1, fields = view e in
  let times = match t1 with None -> [ ("at", t0) ] | Some t1 -> [ ("t0", t0); ("t1", t1) ] in
  Json.to_string
    (Json.Obj (("event", Json.Str kind) :: ("run", Json.Str buffer_name) :: nums (times @ fields)))

(* The span name doubles as the category, so a trace can be checked
   like a wall-clock span export. *)
let chrome_event e =
  let _, name, t0, t1, fields = view e in
  {
    Json.ev_name = name;
    ev_cat = name;
    ts = t0;
    dur = Option.map (fun t1 -> t1 -. t0) t1;
    args = nums fields;
  }

let write ~path b =
  let events = to_list b in
  Ckpt_store.Atomic_file.write ~fsync:false ~path
    (if Filename.check_suffix path ".jsonl" then
       String.concat "" (List.map (fun e -> jsonl_line ~buffer_name:b.name e ^ "\n") events)
     else Json.chrome_trace [ (b.name, List.map chrome_event events) ])
