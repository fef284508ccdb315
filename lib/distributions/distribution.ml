module Rng = Ckpt_prng.Rng
module Quadrature = Ckpt_numerics.Quadrature

type t = {
  name : string;
  mean : float;
  pdf : float -> float;
  cumulative_hazard : float -> float;
  quantile : float -> float;
  sample : Rng.t -> float;
  tlost_override : (age:float -> window:float -> float) option;
  hazard_override : (float -> float) option;
}

let cdf t x = if x <= 0. then 0. else 1. -. exp (-.t.cumulative_hazard x)
let survival t x = if x <= 0. then 1. else exp (-.t.cumulative_hazard x)

let hazard t x =
  match t.hazard_override with
  | Some h -> h x
  | None ->
      let s = survival t x in
      if s <= 0. then infinity else t.pdf x /. s

let conditional_survival t ~age ~duration =
  if duration <= 0. then 1.
  else begin
    let h0 = if age <= 0. then 0. else t.cumulative_hazard age in
    if h0 = infinity then
      (* Conditioning on an almost-surely-dead unit (e.g. past the end
         of a bounded support): the residual life is degenerate at 0. *)
      0.
    else exp (h0 -. t.cumulative_hazard (age +. duration))
  end

let expected_tlost t ~age ~window =
  if window <= 0. then 0.
  else
    match t.tlost_override with
    | Some f -> f ~age ~window
    | None ->
        (* E(X - age | age <= X < age + window)
           = Int_0^w u f(age + u) du / (F(age + w) - F(age)).
           Integrate the numerator by panels: densities can be sharply
           peaked near 0 for decreasing-hazard distributions. *)
        let s_age = survival t age in
        let mass = s_age -. survival t (age +. window) in
        if mass <= 0. then window /. 2.
        else begin
          let f u = u *. t.pdf (age +. u) in
          let panels = 8 in
          let numerator = ref 0. in
          for i = 0 to panels - 1 do
            (* Geometric panels refine near 0 where the density of a
               decreasing-hazard lifetime concentrates. *)
            let a = window *. ((2. ** float_of_int i) -. 1.) /. ((2. ** float_of_int panels) -. 1.) in
            let b = window *. ((2. ** float_of_int (i + 1)) -. 1.) /. ((2. ** float_of_int panels) -. 1.) in
            numerator := !numerator +. Quadrature.gauss_legendre_32 ~f ~lo:a ~hi:b
          done;
          let v = !numerator /. mass in
          (* The conditional expectation must land inside the window. *)
          Float.min window (Float.max 0. v)
        end

let survival_quantile t q =
  if q <= 0. then infinity else if q >= 1. then 0. else t.quantile (1. -. q)

let min_of_iid t n =
  if n <= 0 then invalid_arg "Distribution.min_of_iid: n must be positive";
  if n = 1 then t
  else begin
    let nf = float_of_int n in
    let cumulative_hazard x = nf *. t.cumulative_hazard x in
    let quantile p =
      (* S_min = S^n, so F_min(x) = p iff F(x) = 1 - (1-p)^(1/n). *)
      t.quantile (1. -. ((1. -. p) ** (1. /. nf)))
    in
    let pdf x =
      let s = survival t x in
      nf *. (s ** (nf -. 1.)) *. t.pdf x
    in
    let sample rng = quantile (Rng.uniform_pos rng) in
    let mean =
      Quadrature.integrate_to_infinity ~f:(fun x -> exp (-.cumulative_hazard x)) ~lo:0. ()
    in
    let hazard_override =
      Option.map (fun h x -> nf *. h x) t.hazard_override
    in
    {
      name = Printf.sprintf "min_%d(%s)" n t.name;
      mean;
      pdf;
      cumulative_hazard;
      quantile;
      sample;
      tlost_override = None;
      hazard_override;
    }
  end

let check t =
  let m = if Float.is_nan t.mean || t.mean <= 0. then 1. else t.mean in
  let points = [ 0.1 *. m; 0.5 *. m; m; 2. *. m; 5. *. m ] in
  let nondecreasing_hazard_cum =
    List.for_all2
      (fun a b -> t.cumulative_hazard a <= t.cumulative_hazard b +. 1e-9)
      (List.filteri (fun i _ -> i < 4) points)
      (List.filteri (fun i _ -> i > 0) points)
  in
  let quantile_inverts =
    List.for_all
      (fun p ->
        let x = t.quantile p in
        abs_float (cdf t x -. p) < 1e-6)
      [ 0.1; 0.5; 0.9 ]
  in
  let survival_at_zero = abs_float (survival t 0. -. 1.) < 1e-12 in
  [
    ("cumulative hazard nondecreasing", nondecreasing_hazard_cum);
    ("quantile inverts cdf", quantile_inverts);
    ("survival(0) = 1", survival_at_zero);
  ]
