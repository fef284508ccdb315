module Distribution = Ckpt_distributions.Distribution

type t = {
  exact : float array;
  references : float array;
  counts : int array;
}

type summary = t

let default_nexact = 10
let default_napprox = 100

let exact_of_ages ages =
  let exact = Array.copy ages in
  Array.sort compare exact;
  { exact; references = [||]; counts = [||] }

let processors t = Array.length t.exact + Array.fold_left ( + ) 0 t.counts

(* Index of the reference nearest to [age] (references ascending). *)
let nearest_reference references age =
  let n = Array.length references in
  if age <= references.(0) then 0
  else if age >= references.(n - 1) then n - 1
  else begin
    (* Invariant: references.(lo) < age <= references.(hi). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if references.(mid) >= age then hi := mid else lo := mid
    done;
    if age -. references.(!lo) <= references.(!hi) -. age then !lo else !hi
  end

(* Reference ages for the non-exact processors: the smallest and
   largest remaining ages plus survival-interpolated quantiles between
   them.  Shared by [build] and [Incremental.summarize] so both paths
   produce bit-identical summaries. *)
let make_references dist ~napprox ~smallest_remaining ~largest_remaining =
  let references =
    if largest_remaining <= smallest_remaining then [| smallest_remaining |]
    else begin
      let s_lo = Distribution.survival dist smallest_remaining in
      let s_hi = Distribution.survival dist largest_remaining in
      Array.init napprox (fun idx ->
          if idx = 0 then smallest_remaining
          else if idx = napprox - 1 then largest_remaining
          else begin
            let i = float_of_int (idx + 1) and n = float_of_int napprox in
            let q = (((n -. i) /. (n -. 1.)) *. s_lo) +. (((i -. 1.) /. (n -. 1.)) *. s_hi) in
            let r = Distribution.survival_quantile dist q in
            (* Numerical quantile inversion can drift just outside the
               bracket; clamp to keep the references ordered. *)
            Float.min largest_remaining (Float.max smallest_remaining r)
          end)
    end
  in
  Array.sort compare references;
  references

let build ?(nexact = default_nexact) ?(napprox = default_napprox) dist ~processors ~iter_ages =
  if nexact < 0 then invalid_arg "Age_summary.build: nexact must be nonnegative";
  if napprox < 2 then invalid_arg "Age_summary.build: napprox must be at least 2";
  if processors <= 0 then invalid_arg "Age_summary.build: processors must be positive";
  if processors <= nexact + 1 then begin
    (* Small platform: keep everything exactly. *)
    let buf = Array.make processors 0. in
    let k = ref 0 in
    iter_ages (fun a ->
        buf.(!k) <- a;
        incr k);
    if !k <> processors then invalid_arg "Age_summary.build: iter_ages count mismatch";
    exact_of_ages buf
  end
  else begin
    (* Pass 1: the nexact+1 smallest ages (sorted insertion into a tiny
       buffer) and the overall maximum. *)
    let keep = nexact + 1 in
    let smallest = Array.make keep infinity in
    let maximum = ref neg_infinity in
    let seen = ref 0 in
    iter_ages (fun a ->
        incr seen;
        if a > !maximum then maximum := a;
        if a < smallest.(keep - 1) then begin
          let i = ref (keep - 1) in
          while !i > 0 && smallest.(!i - 1) > a do
            smallest.(!i) <- smallest.(!i - 1);
            decr i
          done;
          smallest.(!i) <- a
        end);
    if !seen <> processors then invalid_arg "Age_summary.build: iter_ages count mismatch";
    let exact = Array.sub smallest 0 nexact in
    let smallest_remaining = smallest.(keep - 1) in
    let largest_remaining = !maximum in
    let references = make_references dist ~napprox ~smallest_remaining ~largest_remaining in
    let counts = Array.make (Array.length references) 0 in
    (* Pass 2: assign every non-exact processor to its nearest
       reference.  Ages strictly below the exact threshold always
       occupy exact slots; ages tied with the threshold fill the
       remaining slots, and any surplus tied processors count toward
       the threshold's nearest reference — a rule independent of
       iteration order, so summaries built from different traversals of
       the same age multiset are identical.  With [nexact = 0] there
       are no exact slots and every age belongs to a reference. *)
    let threshold = if nexact = 0 then neg_infinity else exact.(nexact - 1) in
    let below = ref 0 and tied = ref 0 in
    iter_ages (fun a ->
        if a < threshold then incr below
        else if a = threshold then incr tied
        else begin
          let r = nearest_reference references a in
          counts.(r) <- counts.(r) + 1
        end);
    let surplus = !below + !tied - nexact in
    if surplus > 0 then begin
      let r = nearest_reference references threshold in
      counts.(r) <- counts.(r) + surplus
    end;
    { exact; references; counts }
  end

let log_survival_shift dist t e =
  let h = dist.Distribution.cumulative_hazard in
  let acc = ref 0. in
  Array.iter (fun tau -> acc := !acc +. (h (tau +. e) -. h tau)) t.exact;
  Array.iteri
    (fun i r ->
      if t.counts.(i) > 0 then
        acc := !acc +. (float_of_int t.counts.(i) *. (h (r +. e) -. h r)))
    t.references;
  !acc

(* Repeated shift evaluations (the DP's G table probes hundreds of
   horizon offsets against one summary) redo the H(tau) half of every
   term; hoist those into flat arrays once.  The sums run in the same
   order over the same floats as [log_survival_shift], so the results
   are bit-identical. *)
let shift_evaluator dist t =
  let h = dist.Distribution.cumulative_hazard in
  let h_exact = Array.map h t.exact in
  let h_refs = Array.map h t.references in
  let counts_f = Array.map float_of_int t.counts in
  let exact = t.exact and references = t.references and counts = t.counts in
  let nexact = Array.length exact and nrefs = Array.length references in
  (* Plain counted loops with unchecked reads: this closure runs a few
     hundred times per DP solve over ~a hundred terms each, and every
     index is trivially in range.  Identical summation order to the
     naive fold, so results are bit-identical. *)
  fun e ->
    let acc = ref 0. in
    for i = 0 to nexact - 1 do
      acc := !acc +. (h (Array.unsafe_get exact i +. e) -. Array.unsafe_get h_exact i)
    done;
    for i = 0 to nrefs - 1 do
      if Array.unsafe_get counts i > 0 then
        acc :=
          !acc
          +. Array.unsafe_get counts_f i
             *. (h (Array.unsafe_get references i +. e) -. Array.unsafe_get h_refs i)
    done;
    !acc

let psuc dist t ~elapsed ~duration =
  if duration <= 0. then 1.
  else
    exp (log_survival_shift dist t elapsed -. log_survival_shift dist t (elapsed +. duration))

module Incremental = struct
  type t = { births : float array }
  (* Ascending birth instants (one per failure unit).  Between
     failures every alive unit ages uniformly, so the sorted order is
     invariant; a failure replaces one birth, an O(log p) reinsertion.
     Unit age at time [now] is [max 0 (now - birth)] — the clamp
     mirrors the engine, whose downtime bookkeeping can put a birth
     slightly in the future of the first decision instant. *)

  (* First index in a.(0..n-1) with a.(i) >= v (n if none). *)
  let lower_bound a n v =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo

  (* First index in a.(0..n-1) with a.(i) > v (n if none). *)
  let upper_bound a n v =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) <= v then lo := mid + 1 else hi := mid
    done;
    !lo

  let create ~births =
    if Array.length births = 0 then invalid_arg "Age_summary.Incremental.create: no units";
    let b = Array.copy births in
    Array.sort compare b;
    { births = b }

  let units t = Array.length t.births

  let update t ~old_birth ~new_birth =
    if old_birth = new_birth then ()
    else begin
      let a = t.births in
      let n = Array.length a in
      let i = lower_bound a n old_birth in
      if i >= n || a.(i) <> old_birth then
        invalid_arg "Age_summary.Incremental.update: unknown birth instant";
      if new_birth > old_birth then begin
        (* Remove slot i, reinsert to the right. *)
        let j = upper_bound a n new_birth in
        Array.blit a (i + 1) a i (j - 1 - i);
        a.(j - 1) <- new_birth
      end
      else begin
        (* Reinsert to the left. *)
        let j = lower_bound a n new_birth in
        Array.blit a j a (j + 1) (i - j);
        a.(j) <- new_birth
      end
    end

  let summarize ?(nexact = default_nexact) ?(napprox = default_napprox) t dist ~now =
    if nexact < 0 then invalid_arg "Age_summary.build: nexact must be nonnegative";
    if napprox < 2 then invalid_arg "Age_summary.build: napprox must be at least 2";
    let births = t.births in
    let n = Array.length births in
    (* k-th smallest age, k in 0..n-1: ages are anti-sorted births. *)
    let age k = Float.max 0. (now -. births.(n - 1 - k)) in
    if n <= nexact + 1 then { exact = Array.init n age; references = [||]; counts = [||] }
    else begin
      let exact = Array.init nexact age in
      let smallest_remaining = age nexact in
      let largest_remaining = age (n - 1) in
      let references = make_references dist ~napprox ~smallest_remaining ~largest_remaining in
      let counts = Array.make (Array.length references) 0 in
      let threshold = if nexact = 0 then neg_infinity else exact.(nexact - 1) in
      (* Rank of the first age strictly above the threshold.  Any
         surplus at-or-below-threshold units beyond the nexact exact
         slots are tied exactly at the threshold (the same rule as
         [build]'s pass 2). *)
      let above =
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if age mid <= threshold then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      if above > nexact then begin
        let r = nearest_reference references threshold in
        counts.(r) <- counts.(r) + (above - nexact)
      end;
      (* [nearest_reference] is monotone non-decreasing in the age, and
         ages are sorted by rank, so units mapping to one reference form
         a contiguous rank run — count each run with a binary search
         instead of walking all p units. *)
      let pos = ref above in
      while !pos < n do
        let r = nearest_reference references (age !pos) in
        let lo = ref !pos and hi = ref n in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if nearest_reference references (age mid) > r then hi := mid else lo := mid
        done;
        counts.(r) <- counts.(r) + (!hi - !pos);
        pos := !hi
      done;
      { exact; references; counts }
    end
end
