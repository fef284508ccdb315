let second = 1.
let minute = 60.
let hour = 3600.
let day = 86400.
let week = 7. *. day
let year = 365.25 *. day

let of_days d = d *. day
let of_years y = y *. year
let to_days s = s /. day
let to_years s = s /. year

let pp_duration fmt s =
  let abs = abs_float s in
  if abs < minute then Format.fprintf fmt "%.1f s" s
  else if abs < hour then Format.fprintf fmt "%.1f min" (s /. minute)
  else if abs < day then Format.fprintf fmt "%.2f h" (s /. hour)
  else if abs < year then Format.fprintf fmt "%.2f d" (s /. day)
  else Format.fprintf fmt "%.2f y" (s /. year)
