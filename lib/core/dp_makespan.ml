module Distribution = Ckpt_distributions.Distribution
module Metrics = Ckpt_telemetry.Metrics

let cells_solved = Metrics.counter "dp_makespan/cells_solved"
let tlost_hits = Metrics.counter "dp_makespan/tlost_cache_hits"
let tlost_misses = Metrics.counter "dp_makespan/tlost_cache_misses"
let solves = Metrics.counter "dp_makespan/solves"
let quantum_gauge = Metrics.gauge "dp_makespan/quantum_seconds"
let quantization_error = Metrics.gauge "dp_makespan/checkpoint_quantization_error"

(* Tables are split into pages of [page_size] entries, allocated when
   the first entry is stored, so memory follows the states a solve
   reaches rather than the whole (x, y) triangle.  An empty page is
   [[||]]. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let page dir k make =
  let j = k lsr page_bits in
  if Array.length dir.(j) = 0 then dir.(j) <- make ();
  dir.(j)

(* What every x row shares at one age, i.e. at one (fresh, y):
   [psuc.(i)] is the probability that a chunk of i quanta and its
   checkpoint succeed, and [lost.(i)] the E(Tlost) of that chunk in the
   age's 5%-geometric bucket (NaN until first needed).  Rows of one
   bucket share [lost], whose entries keep the value computed at the
   first age that asked. *)
type age_row = { age : float; psuc : float array; lost : float array }

let no_row = { age = nan; psuc = [||]; lost = [||] }

(* The states of one [fresh] value: cell (x, y) sits at index
   [row_off.(x) + y] of [values] (NaN = unsolved; a solved value is
   never NaN) and [chunks] (its optimal chunk); [rows] is indexed by y.
   The age at (x, y) is [base_age + y u]. *)
type plane = {
  base_age : float;
  row_off : int array;
  values : float array array;
  chunks : int array array;
  rows : age_row array array;
}

type t = {
  context : Dp_context.t;
  x_max : int;
  u : float;
  c_u : int;  (* checkpoint duration in quanta, for age bookkeeping *)
  chunk_cap : int;  (* largest chunk explored, in quanta *)
  e_rec : float;
  durations : float array;  (* i u + C, for every chunk size i the search can reach *)
  fresh : plane;  (* no failure yet: the age started at tau0 *)
  recovered : plane;  (* the age restarted at R; y = 0 is the post-recovery state *)
  tlost_by_bucket : (int, float array) Hashtbl.t;
}

let age_row t p y =
  let rows = page p.rows y (fun () -> Array.make page_size no_row) in
  let r = rows.(y land page_mask) in
  if r != no_row then r
  else begin
    let age = p.base_age +. (float_of_int y *. t.u) in
    (* E(Tlost) varies slowly with age; share evaluations across nearby
       ages through a 5%-geometric bucket. *)
    let bucket = if age <= 1. then 0 else 1 + int_of_float (log age /. 0.05) in
    let lost =
      match Hashtbl.find_opt t.tlost_by_bucket bucket with
      | Some lost -> lost
      | None ->
          let lost = Array.make (Array.length t.durations) nan in
          Hashtbl.add t.tlost_by_bucket bucket lost;
          lost
    in
    let psuc = Array.map (fun duration -> Dp_context.psuc t.context ~age ~duration) t.durations in
    let r = { age; psuc; lost } in
    rows.(y land page_mask) <- r;
    r
  end

let tlost t r i =
  let v = r.lost.(i) in
  if Float.is_nan v then begin
    Metrics.incr tlost_misses;
    let v = Dp_context.expected_tlost t.context ~age:r.age ~window:t.durations.(i) in
    r.lost.(i) <- v;
    v
  end
  else begin
    Metrics.incr tlost_hits;
    v
  end

(* Value of state (x, y) of plane [p], solved on first use.  The
   evaluation is lazy and depth-first, and the order is load-bearing:
   each E(Tlost) entry keeps the value at the first age that asked. *)
let rec value t p x y =
  if x = 0 then 0.
  else begin
    let k = p.row_off.(x) + y in
    let values = p.values.(k lsr page_bits) in
    let v = if Array.length values = 0 then nan else values.(k land page_mask) in
    if Float.is_nan v then begin
      Metrics.incr cells_solved;
      bellman t p ~x ~y ~failure_value:(value t t.recovered x 0) ~self_referential:false
    end
    else v
  end

(* Bellman step at (x, y) of plane [p]; stores the optimum and returns
   its value.  [failure_value] is E(T(x u | R)).  When
   [self_referential], the failure branch is the state itself and the
   fixed point is solved in closed form per candidate chunk.  The
   chunk search is capped at [chunk_cap] quanta (several Young periods:
   psi is convex, so larger chunks are never optimal; see .mli).

   Unlike DPNextFailure's inner maximization, the argmin here is NOT
   monotone in remaining work — the optimal composition of x quanta
   jumps at chunk-count transitions (one chunk of 3 at x = 3, first
   chunk 2 of {2, 2} at x = 4 for memoryless failures) — so no
   monotone pruning of this scan is sound; the solver's speedups come
   from the paged tables and the per-age rows instead. *)
and bellman t p ~x ~y ~failure_value ~self_referential =
  let r = age_row t p y in
  let i_max = min x t.chunk_cap in
  let i_max = if x - i_max < i_max then x else i_max in
  (* ^ when the cap leaves a sub-chunk tail smaller than the cap,
     allow finishing in one chunk so the plan never strands a tail. *)
  let best_v = ref infinity and best_i = ref 1 in
  for i = 1 to i_max do
    let p_i = r.psuc.(i) in
    let v =
      if p_i <= 0. then infinity
      else begin
        let duration = t.durations.(i) in
        let succ = value t p (x - i) (y + i + t.c_u) in
        let lost = tlost t r i in
        if self_referential then
          ((p_i *. (duration +. succ)) +. ((1. -. p_i) *. (lost +. t.e_rec))) /. p_i
        else
          (p_i *. (duration +. succ)) +. ((1. -. p_i) *. (lost +. t.e_rec +. failure_value))
      end
    in
    if v < !best_v then begin
      best_v := v;
      best_i := i
    end
  done;
  let k = p.row_off.(x) + y in
  (page p.values k (fun () -> Array.make page_size nan)).(k land page_mask) <- !best_v;
  (page p.chunks k (fun () -> Array.make page_size 0)).(k land page_mask) <- !best_i;
  !best_v

(* The chunk prescribed at a state ([value] first, so the cell is
   solved). *)
let chunk_quanta t p x y =
  if x = 0 then 0
  else begin
    ignore (value t p x y);
    let k = p.row_off.(x) + y in
    p.chunks.(k lsr page_bits).(k land page_mask)
  end

let young_period context =
  let mean = context.Dp_context.dist.Distribution.mean in
  sqrt (2. *. Float.max 1. context.Dp_context.checkpoint *. mean)

(* Row x of a plane holds y from [lo x] to [lo x + len x - 1]. *)
let plane ~x_max ~y_max ~base_age ~lo ~len =
  let row_off = Array.make (x_max + 1) 0 and cells = ref 0 in
  for x = 0 to x_max do
    row_off.(x) <- !cells - lo x;
    cells := !cells + len x
  done;
  let dir n = Array.make ((n lsr page_bits) + 1) [||] in
  { base_age; row_off; values = dir !cells; chunks = dir !cells; rows = dir (y_max + 1) }

let default_cap_states = 2000
let default_chunk_factor = 6.

let solve ?quantum ?(cap_states = default_cap_states) ?(chunk_factor = default_chunk_factor)
    ~context ~work ~initial_age () =
  if work <= 0. then invalid_arg "Dp_makespan.solve: work must be positive";
  if cap_states < 1 then invalid_arg "Dp_makespan.solve: cap_states must be positive";
  let young = young_period context in
  let u =
    match quantum with
    | Some u when u > 0. -> u
    | Some _ -> invalid_arg "Dp_makespan.solve: quantum must be positive"
    | None ->
        (* Fine enough to express the optimal chunk (a third of Young's
           period), coarse enough to bound the state count. *)
        Float.max (young /. 3.) (work /. float_of_int cap_states)
  in
  let x_max = max 1 (int_of_float (ceil (work /. u))) in
  if x_max >= 1 lsl 30 then
    invalid_arg "Dp_makespan.solve: work/quantum needs too many states for the packed layout";
  let u = work /. float_of_int x_max in
  let c_quanta = Float.round (context.Dp_context.checkpoint /. u) in
  (* y (quanta elapsed since the last failure) reaches at most
     x_max * (1 + c_u): each of at most x_max chunks advances it by its
     size plus one checkpoint.  Reject instances whose y could reach
     2^31 up front, so every index stays well inside an int. *)
  if float_of_int x_max *. (1. +. c_quanta) >= 2147483648. then
    invalid_arg "Dp_makespan.solve: checkpoint/quantum ratio overflows the packed state layout";
  let c_u = int_of_float c_quanta in
  let chunk_cap = max 4 (int_of_float (ceil (chunk_factor *. young /. u))) in
  Metrics.incr solves;
  Metrics.set quantum_gauge u;
  (* Seconds by which snapping C to a whole number of quanta misstates
     the checkpoint in the age bookkeeping. *)
  Metrics.set quantization_error
    (Float.abs ((float_of_int c_u *. u) -. context.Dp_context.checkpoint));
  let y_max = x_max * (1 + c_u) in
  (* Every chunk the search tries is below 2 chunk_cap (see bellman). *)
  let width = min x_max (2 * min chunk_cap x_max) in
  let t =
    {
      context;
      x_max;
      u;
      c_u;
      chunk_cap;
      e_rec = Dp_context.expected_trec context;
      durations =
        Array.init (width + 1) (fun i -> (float_of_int i *. u) +. context.Dp_context.checkpoint);
      (* From (x_max, fresh, 0), k chunks down to x leave
         y = (x_max - x) + k c_u with 1 <= k <= x_max - x; from a
         post-recovery state (x' >= x, 0), y <= (x_max - x)(1 + c_u). *)
      fresh =
        plane ~x_max ~y_max ~base_age:initial_age
          ~lo:(fun x -> x_max - x)
          ~len:(fun x -> ((x_max - x) * c_u) + 1);
      recovered =
        plane ~x_max ~y_max ~base_age:context.Dp_context.recovery
          ~lo:(fun _ -> 0)
          ~len:(fun x -> ((x_max - x) * (1 + c_u)) + 1);
      tlost_by_bucket = Hashtbl.create 64;
    }
  in
  (* Post-recovery states, ascending in x.  Their successors
     (x - i, y = i + c_u) recursively bottom out on post-recovery
     values of strictly smaller x. *)
  for x = 1 to x_max do
    ignore (bellman t t.recovered ~x ~y:0 ~failure_value:nan ~self_referential:true)
  done;
  t

let quantum t = t.u

let expected_makespan t = value t t.fresh t.x_max 0

type cursor = { table : t; plane : plane; x : int; y : int }

let start table = { table; plane = table.fresh; x = table.x_max; y = 0 }

let remaining_work c = float_of_int c.x *. c.table.u

let next_chunk c =
  if c.x = 0 then 0. else float_of_int (chunk_quanta c.table c.plane c.x c.y) *. c.table.u

let advance_success c =
  if c.x = 0 then c
  else begin
    let i = chunk_quanta c.table c.plane c.x c.y in
    { c with x = c.x - i; y = c.y + i + c.table.c_u }
  end

let advance_failure c = { c with plane = c.table.recovered; y = 0 }
