(** Order statistics and the regression verdict rule of the end-to-end
    benchmark.  Pure: no I/O, no clock. *)

val median : float list -> float
(** [statistics.median]: the middle value, or the mean of the two middle
    values.  @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] as Python's [statistics.quantiles(values, n=4)]
    computes them (the default "exclusive" method).  A single value is
    its own quartiles.  @raise Invalid_argument on an empty list. *)

type summary = { median : float; q1 : float; q3 : float; min : float; max : float; n : int }

val summarize : float list -> summary
(** @raise Invalid_argument on an empty list. *)

val spread : summary -> float
(** Interquartile range as a share of the median; [infinity] when the
    median is 0. *)

type direction = Lower_is_better | Higher_is_better

type verdict = Improved | Worse | Unresolved | Unchanged

val verdict_name : verdict -> string

val verdict :
  direction:direction -> bound:float -> parent:float list -> change:float list -> verdict
(** One (metric, workload) verdict, from one sample per run on each side;
    runs pair up in order.
    - [Improved]: the change wins at least 9 in 10 pairs (ties count for
      neither side) and its median is better by more than the parent's
      interquartile range;
    - [Worse]: the change's median is worse than the parent's by more
      than [bound] (a share of the parent's median);
    - [Unresolved]: either side's {!spread} exceeds [bound], unless every
      change run beats every parent run;
    - [Unchanged]: otherwise.
    @raise Invalid_argument when either side is empty. *)
