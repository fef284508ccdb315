(** xoshiro256++ pseudo-random number generator.

    Blackman and Vigna's xoshiro256++ 1.0: 256 bits of state, period
    [2^256 - 1], excellent statistical quality, and a [jump] function
    that advances the stream by [2^128] steps.  Jumping gives us up to
    [2^128] non-overlapping substreams from a single seed, which is how
    every processor of a simulated platform receives an independent,
    reproducible failure stream. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a generator whose four state words are drawn
    from a {!Splitmix64} stream seeded with [seed] (the initialization
    recommended by the xoshiro authors).  The state is never all-zero. *)

val copy : t -> t
(** [copy t] is an independent clone of the current state. *)

val next : t -> int64
(** [next t] returns the next 64 pseudo-random bits. *)

val split : t -> t
(** [split t] returns a clone of [t] and then jumps [t] forward by
    [2^128] calls to {!next}, so the returned generator and the
    argument produce disjoint substreams. *)

val float : t -> float
(** [float t] is uniform on [\[0, 1)], using the top 53 bits. *)

val float_pos : t -> float
(** [float_pos t] is uniform on [(0, 1)]: never returns [0.], so it is
    safe to feed to [log] when sampling by inverse transform. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)
