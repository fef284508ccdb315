module Lambert_w = Ckpt_numerics.Lambert_w

let check_positive name v = if v <= 0. then invalid_arg ("Theory: " ^ name ^ " must be positive")
let check_nonneg name v = if v < 0. then invalid_arg ("Theory: " ^ name ^ " must be nonnegative")

let expected_tlost ~rate ~window =
  check_positive "rate" rate;
  check_nonneg "window" window;
  if window = 0. then 0.
  else begin
    let lw = rate *. window in
    if lw < 1e-8 then window /. 2. *. (1. -. (lw /. 6.))
    else (1. /. rate) -. (window /. (exp lw -. 1.))
  end

let expected_trec ~rate ~recovery ~downtime =
  check_positive "rate" rate;
  check_nonneg "recovery" recovery;
  check_nonneg "downtime" downtime;
  (* D + R + (e^{lambda R} - 1)(D + E(Tlost(R))) = D + (e^{lambda R} - 1)(D + 1/lambda). *)
  downtime +. recovery
  +. ((exp (rate *. recovery) -. 1.) *. (downtime +. expected_tlost ~rate ~window:recovery))

let chunk_count_real ~rate ~work ~checkpoint =
  check_positive "rate" rate;
  check_positive "work" work;
  check_nonneg "checkpoint" checkpoint;
  let z = -.exp ((-.rate *. checkpoint) -. 1.) in
  rate *. work /. (1. +. Lambert_w.w0 z)

let psi ~rate ~work ~checkpoint k =
  if k <= 0 then invalid_arg "Theory.psi: k must be positive";
  let kf = float_of_int k in
  kf *. (exp (rate *. ((work /. kf) +. checkpoint)) -. 1.)

let optimal_chunk_count ~rate ~work ~checkpoint =
  let k0 = chunk_count_real ~rate ~work ~checkpoint in
  let lo = max 1 (int_of_float (floor k0)) in
  let hi = max 1 (int_of_float (ceil k0)) in
  if lo = hi then lo
  else if psi ~rate ~work ~checkpoint lo <= psi ~rate ~work ~checkpoint hi then lo
  else hi

let optimal_period ~rate ~work ~checkpoint =
  work /. float_of_int (optimal_chunk_count ~rate ~work ~checkpoint)

let expected_makespan_for_count ~rate ~work ~checkpoint ~recovery ~downtime k =
  if k <= 0 then invalid_arg "Theory.expected_makespan_for_count: k must be positive";
  let trec = expected_trec ~rate ~recovery ~downtime in
  ((1. /. rate) +. trec) *. psi ~rate ~work ~checkpoint k

let optimal_expected_makespan ~rate ~work ~checkpoint ~recovery ~downtime =
  let k = optimal_chunk_count ~rate ~work ~checkpoint in
  expected_makespan_for_count ~rate ~work ~checkpoint ~recovery ~downtime k

let expected_makespan_single_chunk ~rate ~work ~checkpoint ~recovery ~downtime =
  expected_makespan_for_count ~rate ~work ~checkpoint ~recovery ~downtime 1

let macro_rate ~rate ~processors =
  check_positive "rate" rate;
  if processors <= 0 then invalid_arg "Theory.macro_rate: processors must be positive";
  rate *. float_of_int processors

let parallel_optimal_chunk_count ~rate ~processors ~parallel_work ~checkpoint =
  optimal_chunk_count ~rate:(macro_rate ~rate ~processors) ~work:parallel_work ~checkpoint

let parallel_expected_makespan_macro ~rate ~processors ~parallel_work ~checkpoint ~recovery
    ~downtime =
  optimal_expected_makespan
    ~rate:(macro_rate ~rate ~processors)
    ~work:parallel_work ~checkpoint ~recovery ~downtime
