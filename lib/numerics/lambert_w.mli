(** Lambert W function.

    [w] solves [w * exp w = z].  Theorem 1 of the paper expresses the
    optimal number of chunks through [L(-exp(-lambda*C - 1))], whose
    argument always lies in [(-1/e, 0)]; on that interval the principal
    branch takes values in [(-1, 0)]. *)

val w0 : float -> float
(** [w0 z] is the principal branch, defined for [z >= -1/e].  Accurate
    to near machine precision (Halley iteration from an asymptotically
    correct initial guess).
    @raise Invalid_argument if [z < -1/e] (beyond rounding slack). *)

val wm1 : float -> float
(** [wm1 z] is the secondary real branch, defined for
    [-1/e <= z < 0], with values in [(-inf, -1]].
    @raise Invalid_argument outside the domain. *)

