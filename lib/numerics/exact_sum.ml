(* Fixed-point superaccumulator.

   The sum is stored as limbs.(i) * 2^(32*i - bias), i in [0, limbs_n).
   bias = 1152 places bit 0 of limb 0 at 2^-1152, below the smallest
   subnormal contribution (2^-1074, and frexp-decomposed mantissas
   reach down to 2^-1126); the top limb sits above 2^1024, so every
   finite double's 53-bit mantissa lands strictly inside the array.

   Canonical form: limbs 0 .. limbs_n-2 lie in [0, 2^32); the top limb
   carries the (possibly negative) overflow.  [normalize] restores this
   with floor-division carries, so the canonical form is a unique
   function of the exact value — which is what makes merge trees
   order-independent at the bit level.  Every exported value is
   canonical. *)

let limbs_n = 69
let bias = 1152
let mask32 = 0xFFFFFFFFL

type t = int64 array

let zero : t = Array.make limbs_n 0L
let equal (a : t) (b : t) = a = b

let normalize (t : int64 array) =
  let carry = ref 0L in
  for i = 0 to limbs_n - 2 do
    let v = Int64.add t.(i) !carry in
    t.(i) <- Int64.logand v mask32;
    carry := Int64.shift_right v 32
  done;
  t.(limbs_n - 1) <- Int64.add t.(limbs_n - 1) !carry;
  t

(* Deposit the 53-bit mantissa of [x] (sign included) at its exact bit
   position.  The mantissa spans at most three 32-bit limbs. *)
let deposit (t : int64 array) x =
  let m, e = Float.frexp (Float.abs x) in
  let m53 = Int64.of_float (Float.ldexp m 53) in
  let pos = e - 53 + bias in
  (* pos >= 26 for every nonzero double, incl. subnormals *)
  let idx = pos / 32 and shift = pos mod 32 in
  let c0 = Int64.logand (Int64.shift_left m53 shift) mask32 in
  let c1 = Int64.logand (Int64.shift_right_logical m53 (32 - shift)) mask32 in
  let c2 = if shift = 0 then 0L else Int64.shift_right_logical m53 (64 - shift) in
  let op = if x < 0. then Int64.sub else Int64.add in
  t.(idx) <- op t.(idx) c0;
  t.(idx + 1) <- op t.(idx + 1) c1;
  t.(idx + 2) <- op t.(idx + 2) c2;
  normalize t

let add (t : t) x : t =
  if not (Float.is_finite x) then invalid_arg "Exact_sum.add: non-finite input";
  if x = 0. then t else deposit (Array.copy t) x

let add_sq (t : t) x : t =
  if not (Float.is_finite x) then invalid_arg "Exact_sum.add_sq: non-finite input";
  if x = 0. then t
  else begin
    let hi = x *. x in
    if not (Float.is_finite hi) then invalid_arg "Exact_sum.add_sq: square overflows";
    let lo = Float.fma x x (-.hi) in
    let t = deposit (Array.copy t) hi in
    if lo = 0. then t else deposit t lo
  end

let merge (a : t) (b : t) : t = normalize (Array.init limbs_n (fun i -> Int64.add a.(i) b.(i)))

let total (t : t) =
  let acc = ref 0. in
  for i = limbs_n - 1 downto 0 do
    if t.(i) <> 0L then
      acc := !acc +. Float.ldexp (Int64.to_float t.(i)) ((32 * i) - bias)
  done;
  !acc
