let sorted values =
  if values = [] then invalid_arg "Stats: no values";
  Array.of_list (List.sort Float.compare values)

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles(data, n=4, method='exclusive'): position
   i * (len + 1) / 4, clamped to the inner interval, interpolated with
   exact integer weights. *)
let quartiles values =
  let a = sorted values in
  let len = Array.length a in
  if len = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = len + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > len - 1 then len - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

type summary = { median : float; q1 : float; q3 : float; min : float; max : float; n : int }

let summarize values =
  let a = sorted values in
  let q1, _, q3 = quartiles values in
  {
    median = median values;
    q1;
    q3;
    min = a.(0);
    max = a.(Array.length a - 1);
    n = Array.length a;
  }

let spread s = if s.median = 0. then infinity else (s.q3 -. s.q1) /. Float.abs s.median

type direction = Lower_is_better | Higher_is_better

type verdict = Improved | Worse | Unresolved | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

let verdict ~direction ~bound ~parent ~change =
  let p = summarize parent and c = summarize change in
  (* [gain a b] > 0 when [b] is better than [a]. *)
  let gain a b = match direction with Lower_is_better -> a -. b | Higher_is_better -> b -. a in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (a, b) -> gain a b > 0.) pairs) in
  let improved =
    10 * wins >= 9 * List.length pairs && gain p.median c.median > p.q3 -. p.q1
  in
  let worse = gain p.median c.median < -.bound *. Float.abs p.median in
  let separated = List.for_all (fun b -> List.for_all (fun a -> gain a b > 0.) parent) change in
  if improved then Improved
  else if worse then Worse
  else if (spread p > bound || spread c > bound) && not separated then Unresolved
  else Unchanged
