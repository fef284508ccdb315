(* Unit and property tests for the PRNG substrate. *)

module Splitmix64 = Ckpt_prng.Splitmix64
module Xoshiro256 = Ckpt_prng.Xoshiro256
module Rng = Ckpt_prng.Rng

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* -- SplitMix64 --------------------------------------------------------- *)

let test_splitmix_deterministic () =
  let a = Splitmix64.create 42L and b = Splitmix64.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix64.next a) (Splitmix64.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix64.create 42L and b = Splitmix64.create 43L in
  check Alcotest.bool "different streams" true (Splitmix64.next a <> Splitmix64.next b)

let test_splitmix_mix_nontrivial () =
  (* The finalizer is a bijection; distinct inputs give distinct outputs. *)
  let seen = Hashtbl.create 64 in
  for i = 0 to 999 do
    let v = Splitmix64.mix (Int64.of_int i) in
    check Alcotest.bool "no collision" false (Hashtbl.mem seen v);
    Hashtbl.add seen v ()
  done

let test_splitmix_int_bounds () =
  let t = Splitmix64.create 7L in
  for _ = 1 to 1000 do
    let v = Splitmix64.next_int t 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let test_splitmix_int_invalid () =
  let t = Splitmix64.create 7L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix64.next_int: bound must be positive")
    (fun () -> ignore (Splitmix64.next_int t 0))

(* -- xoshiro256++ -------------------------------------------------------- *)

let test_xoshiro_deterministic () =
  let a = Xoshiro256.create 1L and b = Xoshiro256.create 1L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Xoshiro256.next a) (Xoshiro256.next b)
  done

let test_xoshiro_copy_independent () =
  let a = Xoshiro256.create 1L in
  ignore (Xoshiro256.next a);
  let b = Xoshiro256.copy a in
  let va = Array.init 10 (fun _ -> Xoshiro256.next a) in
  let vb = Array.init 10 (fun _ -> Xoshiro256.next b) in
  check Alcotest.bool "copies agree" true (va = vb);
  ignore (Xoshiro256.next a);
  let va' = Xoshiro256.next a and vb' = Xoshiro256.next b in
  check Alcotest.bool "then drift apart" true (va' <> vb')

let test_xoshiro_split_disjoint () =
  let parent = Xoshiro256.create 9L in
  let child = Xoshiro256.split parent in
  let a = Array.init 64 (fun _ -> Xoshiro256.next parent) in
  let b = Array.init 64 (fun _ -> Xoshiro256.next child) in
  Array.iter (fun v -> check Alcotest.bool "no overlap" false (Array.mem v b)) a

let test_xoshiro_float_range () =
  let t = Xoshiro256.create 3L in
  for _ = 1 to 10_000 do
    let v = Xoshiro256.float t in
    check Alcotest.bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_xoshiro_float_pos () =
  let t = Xoshiro256.create 3L in
  for _ = 1 to 10_000 do
    check Alcotest.bool "positive" true (Xoshiro256.float_pos t > 0.)
  done

let test_xoshiro_int_negative_bound () =
  let t = Xoshiro256.create 3L in
  Alcotest.check_raises "bound -1" (Invalid_argument "Xoshiro256.int: bound must be positive")
    (fun () -> ignore (Xoshiro256.int t (-1)))

let test_xoshiro_uniformity () =
  (* Chi-square over 64 bins with 64k samples: the 99.9% critical value
     for 63 dof is ~103.4; allow slack. *)
  let t = Xoshiro256.create 2024L in
  let bins = Array.make 64 0 and samples = 65_536 in
  for _ = 1 to samples do
    let i = int_of_float (64. *. Xoshiro256.float t) in
    bins.(i) <- bins.(i) + 1
  done;
  let expected = float_of_int samples /. 64. in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. bins
  in
  check Alcotest.bool (Printf.sprintf "chi2 = %.1f < 120" chi2) true (chi2 < 120.)

let test_xoshiro_bool_balanced () =
  let t = Xoshiro256.create 5L in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Xoshiro256.bool t then incr trues
  done;
  check Alcotest.bool "roughly balanced" true (!trues > 4700 && !trues < 5300)

(* -- Rng ----------------------------------------------------------------- *)

let test_rng_derive_deterministic () =
  let a = Rng.derive (Rng.create ~seed:11L) 5 in
  let b = Rng.derive (Rng.create ~seed:11L) 5 in
  for _ = 1 to 50 do
    checkf "same derived stream" (Rng.uniform a) (Rng.uniform b)
  done

let test_rng_derive_keys_differ () =
  let root = Rng.create ~seed:11L in
  let a = Rng.derive root 5 and b = Rng.derive root 6 in
  check Alcotest.bool "different keys differ" true (Rng.uniform a <> Rng.uniform b)

let test_rng_derive_does_not_mutate () =
  let root = Rng.create ~seed:11L in
  let before = Rng.uniform (Rng.derive root 1) in
  ignore (Rng.derive root 2);
  ignore (Rng.derive root 3);
  let after = Rng.uniform (Rng.derive root 1) in
  checkf "derivation is pure" before after

let test_rng_exponential_mean () =
  let t = Rng.create ~seed:77L in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential t ~rate:0.5
  done;
  let mean = !acc /. float_of_int n in
  check Alcotest.bool (Printf.sprintf "mean %.3f ~ 2" mean) true (abs_float (mean -. 2.) < 0.05)

let test_rng_exponential_invalid () =
  let t = Rng.create ~seed:1L in
  Alcotest.check_raises "rate 0" (Invalid_argument "Rng.exponential: rate must be positive")
    (fun () -> ignore (Rng.exponential t ~rate:0.))

let test_rng_normal_moments () =
  let t = Rng.create ~seed:99L in
  let n = 50_000 in
  let sum = ref 0. and sum2 = ref 0. in
  for _ = 1 to n do
    let z = Rng.normal t in
    sum := !sum +. z;
    sum2 := !sum2 +. (z *. z)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  check Alcotest.bool "mean ~ 0" true (abs_float mean < 0.02);
  check Alcotest.bool "var ~ 1" true (abs_float (var -. 1.) < 0.05)

let test_rng_seed_of () =
  let t = Rng.create ~seed:123L in
  check Alcotest.int64 "seed preserved" 123L (Rng.seed_of t)

(* -- qcheck -------------------------------------------------------------- *)

let prop_int_in_bounds =
  QCheck2.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck2.Gen.(pair (int_range 1 100_000) int)
    (fun (bound, seed) ->
      let t = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.int t bound in
      v >= 0 && v < bound)

let prop_uniform_in_unit =
  QCheck2.Test.make ~name:"Rng.uniform stays in [0,1)" ~count:500 QCheck2.Gen.int
    (fun seed ->
      let t = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.uniform t in
      v >= 0. && v < 1.)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_int_in_bounds; prop_uniform_in_unit ]

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "mix is injective on a sample" `Quick test_splitmix_mix_nontrivial;
          Alcotest.test_case "next_int bounds" `Quick test_splitmix_int_bounds;
          Alcotest.test_case "next_int invalid bound" `Quick test_splitmix_int_invalid;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "copy independence" `Quick test_xoshiro_copy_independent;
          Alcotest.test_case "split streams disjoint" `Quick test_xoshiro_split_disjoint;
          Alcotest.test_case "float range" `Quick test_xoshiro_float_range;
          Alcotest.test_case "float_pos positive" `Quick test_xoshiro_float_pos;
          Alcotest.test_case "int negative bound" `Quick test_xoshiro_int_negative_bound;
          Alcotest.test_case "uniformity chi-square" `Quick test_xoshiro_uniformity;
          Alcotest.test_case "bool balanced" `Quick test_xoshiro_bool_balanced;
        ] );
      ( "rng",
        [
          Alcotest.test_case "derive deterministic" `Quick test_rng_derive_deterministic;
          Alcotest.test_case "derive keys differ" `Quick test_rng_derive_keys_differ;
          Alcotest.test_case "derive pure" `Quick test_rng_derive_does_not_mutate;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "exponential invalid rate" `Quick test_rng_exponential_invalid;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "seed_of" `Quick test_rng_seed_of;
        ] );
      ("properties", qcheck_cases);
    ]
