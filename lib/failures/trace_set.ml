module Rng = Ckpt_prng.Rng
module Distribution = Ckpt_distributions.Distribution

type t = {
  traces : Trace.t array;  (* one per processor; may share under grouping *)
  horizon : float;
  merged : (float * int) array;  (* all (date, processor) sorted by date *)
}

(* Each per-processor trace is already sorted, so the global event
   stream is a k-way merge, not an O(total log total) sort of the
   concatenation.  A binary min-heap over the processors' next
   unconsumed failures yields O(total log p) with small constants (two
   flat arrays, no tuple allocation per comparison).  Events are
   ordered by (date, proc) — [Float.compare] then [Int.compare] — so
   equal-date failures across processors have a specified, stable
   order. *)
let build_merged traces =
  let k = Array.length traces in
  let total = Array.fold_left (fun acc tr -> acc + Trace.count tr) 0 traces in
  let merged = Array.make total (0., 0) in
  if total > 0 then begin
    let heap_date = Array.make k 0. in
    let heap_proc = Array.make k 0 in
    (* next.(proc): index of the processor's next unconsumed failure *)
    let next = Array.make k 0 in
    let size = ref 0 in
    let less i j =
      let cmp = Float.compare heap_date.(i) heap_date.(j) in
      cmp < 0 || (cmp = 0 && Int.compare heap_proc.(i) heap_proc.(j) < 0)
    in
    let swap i j =
      let d = heap_date.(i) and p = heap_proc.(i) in
      heap_date.(i) <- heap_date.(j);
      heap_proc.(i) <- heap_proc.(j);
      heap_date.(j) <- d;
      heap_proc.(j) <- p
    in
    let rec sift_up i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if less i parent then begin
          swap i parent;
          sift_up parent
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = ref i in
      if l < !size && less l !m then m := l;
      if r < !size && less r !m then m := r;
      if !m <> i then begin
        swap i !m;
        sift_down !m
      end
    in
    Array.iteri
      (fun proc tr ->
        if Trace.count tr > 0 then begin
          heap_date.(!size) <- tr.Trace.failure_times.(0);
          heap_proc.(!size) <- proc;
          incr size;
          sift_up (!size - 1);
          next.(proc) <- 1
        end)
      traces;
    let out = ref 0 in
    while !size > 0 do
      let proc = heap_proc.(0) in
      merged.(!out) <- (heap_date.(0), proc);
      incr out;
      let tr = traces.(proc) in
      if next.(proc) < Trace.count tr then begin
        heap_date.(0) <- tr.Trace.failure_times.(next.(proc));
        next.(proc) <- next.(proc) + 1;
        sift_down 0
      end
      else begin
        decr size;
        if !size > 0 then begin
          heap_date.(0) <- heap_date.(!size);
          heap_proc.(0) <- heap_proc.(!size);
          sift_down 0
        end
      end
    done
  end;
  merged

let of_traces traces =
  let n = Array.length traces in
  if n = 0 then invalid_arg "Trace_set.of_traces: empty";
  let horizon = traces.(0).Trace.horizon in
  Array.iter
    (fun tr ->
      if tr.Trace.horizon <> horizon then invalid_arg "Trace_set.of_traces: mismatched horizons")
    traces;
  { traces; horizon; merged = build_merged traces }

(* Key layout for derived streams: replicate in the high bits,
   processor (or node) in the low bits, so streams never collide
   across replicates of the same experiment. *)
let stream_key ~replicate ~unit_index = (replicate * 0x1000000) + unit_index

let generate ~seed ~replicate dist ~processors ~horizon =
  if processors <= 0 then invalid_arg "Trace_set.generate: processors must be positive";
  let root = Rng.create ~seed in
  let traces =
    Array.init processors (fun i ->
        Trace.generate (Rng.derive root (stream_key ~replicate ~unit_index:i)) dist ~horizon)
  in
  of_traces traces

let processors t = Array.length t.traces
let horizon t = t.horizon

let trace t i =
  if i < 0 || i >= Array.length t.traces then invalid_arg "Trace_set.trace: index out of range";
  t.traces.(i)

let total_failures t = Array.fold_left (fun acc tr -> acc + Trace.count tr) 0 t.traces

let events t = t.merged

let next_event_index t ~after =
  let a = t.merged in
  let n = Array.length a in
  let date i = fst a.(i) in
  if n = 0 || date (n - 1) < after then n
  else if date 0 >= after then 0
  else begin
    (* Invariant: date lo < after <= date hi. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if date mid >= after then hi := mid else lo := mid
    done;
    !hi
  end

let next_platform_failure t ~after =
  let i = next_event_index t ~after in
  if i >= Array.length t.merged then None else Some t.merged.(i)
