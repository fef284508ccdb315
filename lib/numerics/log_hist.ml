type t = { buckets : int array; count : int; min_v : float; max_v : float }

let n_buckets = 64
let offset = 32

let bucket_of_value v =
  if not (Float.is_finite v) || v <= 0. then 0
  else min (n_buckets - 1) (max 0 (offset + int_of_float (Float.floor (Float.log2 v))))

let bucket_lower i = Float.pow 2. (float_of_int (i - offset))

let empty = { buckets = Array.make n_buckets 0; count = 0; min_v = infinity; max_v = neg_infinity }

let add t v =
  let buckets = Array.copy t.buckets in
  let b = bucket_of_value v in
  buckets.(b) <- buckets.(b) + 1;
  {
    buckets;
    count = t.count + 1;
    min_v = Float.min t.min_v v;
    max_v = Float.max t.max_v v;
  }

let merge a b =
  {
    buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    count = a.count + b.count;
    min_v = Float.min a.min_v b.min_v;
    max_v = Float.max a.max_v b.max_v;
  }

let quantile h p =
  if h.count = 0 then nan
  else if p <= 0. then h.min_v
  else if p >= 1. then h.max_v
  else begin
    let rank = int_of_float (Float.round (p *. float_of_int h.count)) in
    let rank = max 1 (min h.count rank) in
    let rec walk i seen =
      if i >= n_buckets then h.max_v
      else begin
        let seen = seen + h.buckets.(i) in
        if seen >= rank then Float.max h.min_v (Float.min h.max_v (bucket_lower i *. sqrt 2.))
        else walk (i + 1) seen
      end
    in
    walk 0 0
  end

let to_tokens h =
  let pairs = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) <> 0 then pairs := string_of_int i :: string_of_int h.buckets.(i) :: !pairs
  done;
  string_of_int h.count
  :: Printf.sprintf "%h" h.min_v
  :: Printf.sprintf "%h" h.max_v
  :: string_of_int (List.length !pairs / 2)
  :: !pairs

let of_tokens = function
  | count :: min_v :: max_v :: k :: rest -> (
      match
        (int_of_string_opt count, float_of_string_opt min_v, float_of_string_opt max_v,
         int_of_string_opt k)
      with
      | Some count, Some min_v, Some max_v, Some k when count >= 0 && k >= 0 && k <= n_buckets
        ->
          let buckets = Array.make n_buckets 0 in
          let rec take n rest =
            if n = 0 then Some ({ buckets; count; min_v; max_v }, rest)
            else
              match rest with
              | i :: c :: rest -> (
                  match (int_of_string_opt i, int_of_string_opt c) with
                  | Some i, Some c when i >= 0 && i < n_buckets && c >= 0 ->
                      buckets.(i) <- c;
                      take (n - 1) rest
                  | _ -> None)
              | _ -> None
          in
          take k rest
      | _ -> None)
  | _ -> None
