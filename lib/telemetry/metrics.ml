(* A process-global metrics registry: named counters, gauges and
   log-scale histograms, shared by every layer of the stack (DP
   solvers, trace cache, domain pool, evaluation harness).  Wall-clock
   time is not a metric: it is recorded as [Span]s.

   The registry follows the same contract as the rest of the telemetry
   layer: *off by default*, enabled by CKPT_METRICS=1 (or
   programmatically), and every update entry point costs exactly one
   [Atomic.get] branch when disabled, so instrumenting a hot loop is
   free in normal runs.  Reads ({!snapshot}, {!find}) work regardless
   of the enabled flag. *)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "CKPT_METRICS" with Some ("1" | "true") -> true | _ -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* -- histograms ----------------------------------------------------------- *)

(* Bucketing, merging and quantile estimation are Ckpt_numerics.Log_hist
   (power-of-two buckets centred on 1.0); the registry's snapshot only
   adds a running [sum] on top, for exact means.  Sharing the scheme
   means histograms built by the evaluation harness (Summary.Vector)
   and by live metering are directly comparable bucket for bucket. *)
module Log_hist = Ckpt_numerics.Log_hist

let hist_buckets = Log_hist.n_buckets
let bucket_of_value = Log_hist.bucket_of_value
let bucket_lower = Log_hist.bucket_lower

type histogram_snapshot = {
  buckets : int array;  (* length [hist_buckets] *)
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
}

let hist_of_snapshot h =
  { Log_hist.buckets = h.buckets; count = h.count; min_v = h.min_v; max_v = h.max_v }

let empty_histogram =
  {
    buckets = Array.make hist_buckets 0;
    count = 0;
    sum = 0.;
    min_v = infinity;
    max_v = neg_infinity;
  }

(* Summary.merge-style combination: merging two snapshots is exactly
   the snapshot of the concatenated observation streams, so per-domain
   or per-replicate histograms can be combined in any order. *)
let merge_histograms a b =
  let m = Log_hist.merge (hist_of_snapshot a) (hist_of_snapshot b) in
  {
    buckets = m.Log_hist.buckets;
    count = m.Log_hist.count;
    sum = a.sum +. b.sum;
    min_v = m.Log_hist.min_v;
    max_v = m.Log_hist.max_v;
  }

let histogram_mean h = if h.count = 0 then nan else h.sum /. float_of_int h.count
let histogram_quantile h p = Log_hist.quantile (hist_of_snapshot h) p

(* -- registry cells ------------------------------------------------------- *)

type counter = int Atomic.t
type gauge = float Atomic.t

type hist_cell = {
  h_lock : Mutex.t;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type histogram = hist_cell

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of hist_cell

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let register name make extract =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match extract m with
          | Some cell -> cell
          | None -> invalid_arg (Printf.sprintf "Metrics: %S registered with another kind" name))
      | None ->
          let cell, m = make () in
          Hashtbl.add registry name m;
          cell)

let counter name =
  register name
    (fun () ->
      let c = Atomic.make 0 in
      (c, M_counter c))
    (function M_counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = Atomic.make nan in
      (g, M_gauge g))
    (function M_gauge g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () ->
      let h =
        {
          h_lock = Mutex.create ();
          h_buckets = Array.make hist_buckets 0;
          h_count = 0;
          h_sum = 0.;
          h_min = infinity;
          h_max = neg_infinity;
        }
      in
      (h, M_histogram h))
    (function M_histogram h -> Some h | _ -> None)

(* -- updates (one branch when disabled) ----------------------------------- *)

let incr c = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c 1)
let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c n)
let set g v = if Atomic.get enabled_flag then Atomic.set g v

let observe h v =
  if Atomic.get enabled_flag then begin
    let b = bucket_of_value v in
    Mutex.lock h.h_lock;
    h.h_buckets.(b) <- h.h_buckets.(b) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_min <- Float.min h.h_min v;
    h.h_max <- Float.max h.h_max v;
    Mutex.unlock h.h_lock
  end

(* -- reads ---------------------------------------------------------------- *)

let value_of = function
  | M_counter c -> Counter (Atomic.get c)
  | M_gauge g -> Gauge (Atomic.get g)
  | M_histogram h ->
      Mutex.lock h.h_lock;
      let v =
        Histogram
          {
            buckets = Array.copy h.h_buckets;
            count = h.h_count;
            sum = h.h_sum;
            min_v = h.h_min;
            max_v = h.h_max;
          }
      in
      Mutex.unlock h.h_lock;
      v

let find name =
  match locked (fun () -> Hashtbl.find_opt registry name) with
  | Some m -> Some (value_of m)
  | None -> None

let snapshot () =
  locked (fun () -> Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset_metric = function
  | M_counter c -> Atomic.set c 0
  | M_gauge g -> Atomic.set g nan
  | M_histogram h ->
      Mutex.lock h.h_lock;
      Array.fill h.h_buckets 0 hist_buckets 0;
      h.h_count <- 0;
      h.h_sum <- 0.;
      h.h_min <- infinity;
      h.h_max <- neg_infinity;
      Mutex.unlock h.h_lock

let reset ?prefix () =
  locked (fun () ->
      Hashtbl.iter
        (fun name m ->
          match prefix with
          | Some prefix when not (String.starts_with ~prefix name) -> ()
          | _ -> reset_metric m)
        registry)

(* -- rendering ------------------------------------------------------------ *)

let pp_value fmt = function
  | Counter n -> Format.fprintf fmt "%d" n
  | Gauge v -> if Float.is_nan v then Format.fprintf fmt "unset" else Format.fprintf fmt "%g" v
  | Histogram h ->
      if h.count = 0 then Format.fprintf fmt "empty"
      else
        Format.fprintf fmt "n=%d mean=%.4g p50~%.3g p90~%.3g p99~%.3g min=%.4g max=%.4g" h.count
          (histogram_mean h) (histogram_quantile h 0.5) (histogram_quantile h 0.9)
          (histogram_quantile h 0.99) h.min_v h.max_v

let nonempty = function
  | Counter 0 -> false
  | Gauge v -> not (Float.is_nan v)
  | Histogram { count; _ } -> count > 0
  | Counter _ -> true

let pp_snapshot fmt entries =
  let entries = List.filter (fun (_, v) -> nonempty v) entries in
  if entries = [] then Format.fprintf fmt "(no metrics recorded)@."
  else begin
    let width =
      List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 entries
    in
    List.iter
      (fun (name, v) -> Format.fprintf fmt "%-*s  %a@." width name pp_value v)
      entries
  end
