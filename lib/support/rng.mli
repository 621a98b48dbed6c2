(** Deterministic splittable pseudo-random number generator.

    The whole simulator must be reproducible from a single seed: scheduler
    decisions, workload behaviour and experiment sweeps all draw from values
    of type {!t}.  The implementation is SplitMix64 (Steele, Lea & Flood,
    OOPSLA 2014), which is fast, has a 64-bit state, and supports
    {!split}ting into statistically independent streams so that concurrent
    processes do not share a mutable generator. *)

type t
(** Mutable generator state. *)

val make : int -> t
(** [make seed] creates a generator from an integer seed.  Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    independent of the remainder of [t]'s stream. *)

val copy : t -> t
(** [copy t] duplicates the current state; both generators then produce the
    same stream. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val raw : t -> int
(** The draw {!int} makes, before it is reduced to a bound: [int t bound]
    is [reduce (raw t) bound].  Non-negative. *)

val reduce : int -> int -> int
(** [reduce r bound] maps a {!raw} draw into [\[0, bound)].  [bound] must
    be positive (unchecked). *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val geometric : t -> float -> int
(** [geometric t p] samples the number of failures before the first success
    of a Bernoulli([p]) trial; mean [(1-p)/p].  Requires [0 < p <= 1]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the given
    mean. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element.  Raises [Invalid_argument] on empty arrays. *)

val pick_weighted : t -> ('a * float) array -> 'a
(** [pick_weighted t choices] picks proportionally to the (non-negative)
    weights (a negative weight counts as zero).  Allocates nothing on the
    host.  Raises [Invalid_argument] if all weights are zero or the array
    is empty. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
