(** Time-unit helpers.  All simulator times are in seconds. *)

val second : float
val hour : float
val day : float
val week : float
val year : float
(** Julian year: 365.25 days. *)

val of_days : float -> float
val of_years : float -> float
val to_days : float -> float
val to_years : float -> float

val pp_duration : Format.formatter -> float -> unit
(** Human-readable rendering (e.g. ["2.5 d"], ["1.3 y"]). *)
