module Metrics = Ckpt_telemetry.Metrics

let solves = Metrics.counter "dp_next_failure/solves"
let cells = Metrics.counter "dp_next_failure/cells_solved"
let candidates = Metrics.counter "dp_next_failure/candidates_scanned"
let truncations = Metrics.counter "dp_next_failure/truncated_horizons"

type plan = {
  chunks : float list;
  expected_work : float;
  quantum : float;
  truncated : bool;
  valid_work : float;
}

let expected_work_of_chunks ~context ~ages chunks =
  let dist = context.Dp_context.dist in
  let c = context.Dp_context.checkpoint in
  let _, _, total =
    List.fold_left
      (fun (elapsed, survive, total) w ->
        let p = Age_summary.psuc dist ages ~elapsed ~duration:(w +. c) in
        let survive = survive *. p in
        (elapsed +. w +. c, survive, total +. (survive *. w)))
      (0., 1., 0.) chunks
  in
  total

let solve ?(max_states = 150) ?(truncation_factor = 2.) ?(prune = true) ~context ~ages ~work () =
  if work <= 0. then invalid_arg "Dp_next_failure.solve: work must be positive";
  if max_states < 1 then invalid_arg "Dp_next_failure.solve: max_states must be positive";
  let dist = context.Dp_context.dist in
  let c = context.Dp_context.checkpoint in
  let p = Age_summary.processors ages in
  let platform_mtbf = dist.Ckpt_distributions.Distribution.mean /. float_of_int p in
  let planned =
    if truncation_factor > 0. then Float.min work (truncation_factor *. platform_mtbf)
    else work
  in
  let truncated = planned < work in
  (* Resolution: enough quanta that a Young-period-sized chunk spans
     several, without paying for states a short horizon cannot use. *)
  let young = sqrt (2. *. Float.max 1. c *. platform_mtbf) in
  let floor_states = min 48 max_states in
  let x_max =
    min max_states (max floor_states (int_of_float (ceil (planned *. 6. /. young))))
  in
  let u = planned /. float_of_int x_max in
  (* Platform log-survival over the planning horizon.  Evaluating the
     full age summary is the expensive part, so G is tabulated on a
     coarse grid and linearly interpolated: G is a smooth sum of
     cumulative hazards, and — crucially — interpolation never rounds
     the checkpoint cost away (a grid that did would make checkpoints
     look free and degenerate the plan into one-quantum chunks).  The
     shift evaluator hoists the H(tau) halves of every term. *)
  let horizon = float_of_int x_max *. (u +. c) in
  let g_points = 256 in
  let step = horizon /. float_of_int g_points in
  let shift = Age_summary.shift_evaluator dist ages in
  let g = Array.init (g_points + 2) (fun i -> shift (float_of_int i *. step)) in
  let g_at e =
    let t = e /. step in
    let i = int_of_float t in
    let i = if i >= g_points then g_points else i in
    let frac = t -. float_of_int i in
    g.(i) +. (frac *. (g.(i + 1) -. g.(i)))
  in
  (* value.(x * stride + n) = optimal E(W) with x quanta left after n
     chunks; best likewise holds the maximizing chunk size in quanta.
     Flat rows keep the inner loop free of bounds-checked row
     indirections. *)
  let stride = x_max + 1 in
  let value = Array.make ((x_max + 1) * stride) 0. in
  let best = Array.make ((x_max + 1) * stride) 0 in
  (* qmax.(x * stride + n) = max over x' <= x of
     (value.(x' * stride + n) - chunk_of.(x')): running prefix maxima
     of each DP row in "value minus chunk" form.  A candidate j at cell
     (x, n) scores psuc_j * (chunk_of.(j) + value.(x - j)), and
     chunk_of.(j) = chunk_of.(x) - chunk_of.(x - j) up to round-off, so
     chunk_of.(x) + qmax over the tail's x - j range tightly bounds the
     bracketed factor for every remaining candidate at once. *)
  let qmax = Array.make ((x_max + 1) * stride) 0. in
  (* g_min.(k) = min over k' >= k of g.(k'): since every candidate's
     interpolated G value is a convex combination of two table nodes at
     or past its index, g_min lower-bounds the G any further candidate
     can see.  (G is nondecreasing in exact arithmetic, so g_min is
     normally just g itself; the suffix min also absorbs any ulp-level
     rounding wobble, keeping the pruning bound sound.) *)
  let g_min = Array.make (g_points + 2) g.(g_points + 1) in
  for k = g_points downto 0 do
    g_min.(k) <- Float.min g.(k) g_min.(k + 1)
  done;
  (* Chunks beyond a few Young periods are never optimal (the marginal
     risk of the chunk's tail exceeds the amortized checkpoint saving);
     capping the search turns the cubic scan into a near-quadratic one.
     The cap is ignored near the end of the plan so a single final
     chunk stays expressible. *)
  let chunk_cap = max 4 (int_of_float (ceil (8. *. young /. u))) in
  let chunk_of = Array.init (x_max + 1) (fun i -> float_of_int i *. u) in
  let scanned = ref 0 in
  (* First-strict-max scan of candidate chunk sizes 1..ihi at cell
     (x, n); every evaluated expression matches the reference scan bit
     for bit.

     Pruning (a branch-and-bound early exit, NOT a monotone-argmax
     assumption — the argmax is provably non-monotone in x: a platform
     with every age tied at zero under Weibull k = 0.7 exhibits
     off-by-one oscillations that corrupt a divide-and-conquer
     bracket): candidate values decay once the chunk outgrows the
     survival horizon, so after each candidate the whole remaining
     tail is bounded at once.  For every j > i,

       v_j  =  exp (g_base - G(e_j)) * (chunk_j + value_(x-j))
           <=  exp (g_base - min_{k >= k0} g.(k))
               * (chunk_x + max_{m <= x-i-1} (value_m - chunk_m))

     where k0 is candidate i+1's G-table index: the interpolated
     G(e_j) is a convex combination of table nodes at or past k0,
     chunk_j + value_(x-j) = chunk_x + (value_(x-j) - chunk_(x-j)) up
     to round-off, and IEEE arithmetic is monotone, so the
     float-evaluated bound dominates every float-evaluated v_j (a
     1e-12 relative cushion absorbs the round-off and libm's exp being
     faithful rather than correctly rounded).  When the bound cannot
     strictly beat the incumbent, no remaining candidate can change
     either the cell value or the first-strict-max index, and the scan
     stops — bit-identical by construction, no structural assumption
     about where the argmax sits.  The exp-bearing check runs only
     behind a free arithmetic gate built from the current candidate's
     own psuc. *)
  (* The scan below is the program's hottest loop (hundreds of
     thousands of iterations per solve), so it reads the arrays with
     [unsafe_get]: every index is bounded by construction ([idx <= ihi
     <= x <= x_max], [n + 1 <= x_max - x + 1], interpolation indices
     capped at [g_points]), and each access mirrors a bounds-checked
     one in the reference scan ([g_at] inlined verbatim, same
     operation order, so results stay bit-identical). *)
  let scan x n ihi =
    let e_base = (float_of_int (x_max - x) *. u) +. (float_of_int n *. c) in
    let g_base = g_at e_base in
    let chunk_x = Array.unsafe_get chunk_of x in
    let best_v = ref neg_infinity and best_i = ref 1 in
    let i = ref 1 in
    (* Next-row cursor: candidate idx reads value.((x - idx) * stride
       + n + 1); consecutive candidates step it down one row. *)
    let vi = ref (((x - 1) * stride) + n + 1) in
    let live = ref true in
    while !live && !i <= ihi do
      let idx = !i in
      let chunk = Array.unsafe_get chunk_of idx in
      let t = (e_base +. chunk +. c) /. step in
      let k = int_of_float t in
      let k = if k >= g_points then g_points else k in
      let gk = Array.unsafe_get g k in
      let ge = gk +. ((t -. float_of_int k) *. (Array.unsafe_get g (k + 1) -. gk)) in
      let psuc = exp (g_base -. ge) in
      let v = psuc *. (chunk +. Array.unsafe_get value !vi) in
      if v > !best_v then begin
        best_v := v;
        best_i := idx
      end;
      if prune && idx < ihi then begin
        let a_ub = chunk_x +. Array.unsafe_get qmax (!vi - stride) in
        (* Cheap gate: this candidate's own psuc over-estimates every
           remaining one (up to round-off the rigorous bound absorbs);
           only when it says the tail is dead do we spend the one exp
           on the rigorous bound. *)
        if psuc *. a_ub <= !best_v then begin
          let e_next = e_base +. Array.unsafe_get chunk_of (idx + 1) +. c in
          let k0 =
            let k = int_of_float (e_next /. step) in
            if k >= g_points then g_points else k
          in
          if exp (g_base -. Array.unsafe_get g_min k0) *. (1. +. 1e-12) *. a_ub <= !best_v then
            live := false
        end
      end;
      vi := !vi - stride;
      incr i
    done;
    scanned := !scanned + (if !live then !i - 1 else !i);
    value.((x * stride) + n) <- !best_v;
    best.((x * stride) + n) <- !best_i;
    (* Extend the row's prefix maxima for later cells' bounds. *)
    qmax.((x * stride) + n) <-
      Float.max (!best_v -. chunk_x) qmax.(((x - 1) * stride) + n)
  in
  for x = 1 to x_max do
    for n = 0 to x_max - x do
      let i_max = if x <= 2 * chunk_cap then x else chunk_cap in
      scan x n i_max
    done
  done;
  Metrics.incr solves;
  Metrics.add cells (x_max * (x_max + 1) / 2);
  Metrics.add candidates !scanned;
  if truncated then Metrics.incr truncations;
  let chunks =
    let rec collect x n acc =
      if x = 0 then List.rev acc
      else begin
        let i = best.((x * stride) + n) in
        collect (x - i) (n + 1) (float_of_int i *. u :: acc)
      end
    in
    collect x_max 0 []
  in
  {
    chunks;
    expected_work = value.(x_max * stride);
    quantum = u;
    truncated;
    valid_work = (if truncated then planned /. 2. else planned);
  }
