type t = {
  count : int;
  mean : float;
  m2 : float;  (* sum of squared deviations from the running mean *)
  min_v : float;
  max_v : float;
}

let empty = { count = 0; mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity }

let add t x =
  let count = t.count + 1 in
  let delta = x -. t.mean in
  let mean = t.mean +. (delta /. float_of_int count) in
  let m2 = t.m2 +. (delta *. (x -. mean)) in
  { count; mean; m2; min_v = Float.min t.min_v x; max_v = Float.max t.max_v x }

let add_all t xs = List.fold_left add t xs

(* Chan et al.'s pairwise update: combine two Welford accumulators as
   if their observations had been seen in one pass. *)
let merge a b =
  if a.count = 0 then b
  else if b.count = 0 then a
  else begin
    let na = float_of_int a.count and nb = float_of_int b.count in
    let count = a.count + b.count in
    let n = float_of_int count in
    let delta = b.mean -. a.mean in
    {
      count;
      mean = a.mean +. (delta *. nb /. n);
      m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n);
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
    }
  end
let count t = t.count
let mean t = if t.count = 0 then nan else t.mean
let variance t = if t.count < 2 then nan else t.m2 /. float_of_int (t.count - 1)
let std t = sqrt (variance t)
let min_value t = if t.count = 0 then nan else t.min_v
let max_value t = if t.count = 0 then nan else t.max_v

let of_array a = Array.fold_left add empty a

let mean_confidence_interval ?(confidence = 0.95) t =
  if confidence <= 0. || confidence >= 1. then
    invalid_arg "Summary.mean_confidence_interval: confidence outside (0, 1)";
  if t.count < 2 then (nan, nan)
  else begin
    let z = Special.normal_quantile (0.5 +. (confidence /. 2.)) in
    let half = z *. std t /. sqrt (float_of_int t.count) in
    (t.mean -. half, t.mean +. half)
  end

(* Component-wise distributional accumulator over fixed-dimension
   observations (the engine's waste decomposition).  Moments come from
   exact superaccumulators and histograms from integer buckets, so —
   unlike the scalar Chan/Welford combine above — [Vector.merge] is
   exactly commutative and associative: the stripe reduce produces
   bit-identical vectors whatever the tree shape. *)
module Vector = struct
  type component = {
    sum : Exact_sum.t;
    sumsq : Exact_sum.t;
    c_min : float;
    c_max : float;
    hist : Log_hist.t;
  }

  type nonrec t = { obs : int; comps : component array }

  let empty_component =
    { sum = Exact_sum.zero; sumsq = Exact_sum.zero; c_min = infinity; c_max = neg_infinity;
      hist = Log_hist.empty }

  let create ~dim =
    if dim < 1 then invalid_arg "Summary.Vector.create: dim < 1";
    { obs = 0; comps = Array.make dim empty_component }

  let dim t = Array.length t.comps
  let count t = t.obs

  let add t xs =
    if Array.length xs <> dim t then invalid_arg "Summary.Vector.add: dimension mismatch";
    Array.iter
      (fun x ->
        if not (Float.is_finite x) then invalid_arg "Summary.Vector.add: non-finite component")
      xs;
    {
      obs = t.obs + 1;
      comps =
        Array.mapi
          (fun i c ->
            let x = xs.(i) in
            {
              sum = Exact_sum.add c.sum x;
              sumsq = Exact_sum.add_sq c.sumsq x;
              c_min = Float.min c.c_min x;
              c_max = Float.max c.c_max x;
              hist = Log_hist.add c.hist x;
            })
          t.comps;
    }

  let merge a b =
    if dim a <> dim b then invalid_arg "Summary.Vector.merge: dimension mismatch";
    {
      obs = a.obs + b.obs;
      comps =
        Array.map2
          (fun ca cb ->
            {
              sum = Exact_sum.merge ca.sum cb.sum;
              sumsq = Exact_sum.merge ca.sumsq cb.sumsq;
              c_min = Float.min ca.c_min cb.c_min;
              c_max = Float.max ca.c_max cb.c_max;
              hist = Log_hist.merge ca.hist cb.hist;
            })
          a.comps b.comps;
    }

  let comp t i =
    if i < 0 || i >= dim t then invalid_arg "Summary.Vector: component index out of range";
    t.comps.(i)

  let mean t i =
    let c = comp t i in
    if t.obs = 0 then nan else Exact_sum.total c.sum /. float_of_int t.obs

  let variance t i =
    let c = comp t i in
    if t.obs < 2 then nan
    else begin
      let n = float_of_int t.obs in
      let s = Exact_sum.total c.sum in
      (* sumsq - sum^2/n can round slightly negative when the spread is
         tiny relative to the mean; clamp so std stays real. *)
      Float.max 0. ((Exact_sum.total c.sumsq -. (s *. s /. n)) /. (n -. 1.))
    end

  let std t i = sqrt (variance t i)

  let min_value t i = if t.obs = 0 then nan else (comp t i).c_min
  let max_value t i = if t.obs = 0 then nan else (comp t i).c_max
  let quantile t i p = Log_hist.quantile (comp t i).hist p

  let ci_half_width ?(confidence = 0.95) t i =
    if confidence <= 0. || confidence >= 1. then
      invalid_arg "Summary.Vector.ci_half_width: confidence outside (0, 1)";
    if t.obs < 2 then nan
    else
      Special.normal_quantile (0.5 +. (confidence /. 2.))
      *. std t i /. sqrt (float_of_int t.obs)

  (* Bit-level: floats by their bits, exact sums and histograms
     structurally. *)
  let equal a b =
    let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
    let same_hist (h : Log_hist.t) (k : Log_hist.t) =
      h.buckets = k.buckets && h.count = k.count && same h.min_v k.min_v && same h.max_v k.max_v
    in
    a.obs = b.obs
    && dim a = dim b
    && Array.for_all2
         (fun ca cb ->
           Exact_sum.equal ca.sum cb.sum
           && Exact_sum.equal ca.sumsq cb.sumsq
           && same ca.c_min cb.c_min && same ca.c_max cb.c_max && same_hist ca.hist cb.hist)
         a.comps b.comps
end

let quantile data p =
  let n = Array.length data in
  if n = 0 then invalid_arg "Summary.quantile: empty data";
  if p < 0. || p > 1. then invalid_arg "Summary.quantile: p outside [0, 1]";
  let sorted = Array.copy data in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float (floor h) in
    let i = if i >= n - 1 then n - 2 else i in
    let frac = h -. float_of_int i in
    sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let median data = quantile data 0.5
