(** Log-scaled streaming histogram of non-negative integer samples
    (HdrHistogram-style), for latency-class telemetry.

    The value range is covered by power-of-two major buckets, each divided
    into 16 linear sub-buckets, so relative precision is better than 1/16
    (~6%) everywhere while the whole table is one fixed [int array] of 960
    slots.  {!record} is allocation-free and branch-cheap — it may sit on
    the simulator's instrumented paths without perturbing the cost model —
    and querying walks the table only when asked.

    Samples are work units (or any non-negative int); negative samples are
    clamped to 0 rather than rejected, because instrumented clocks can
    legitimately read 0-length gaps. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Add one sample.  No allocation. *)

val count : t -> int
(** Total samples recorded. *)

val total : t -> int
(** Sum of all samples. *)

val min_value : t -> int
(** Smallest sample; [0] when empty. *)

val max_value : t -> int
(** Largest sample; [0] when empty. *)

val mean : t -> float
(** [0.] when empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100]: an upper bound of the bucket
    holding the p-th percentile sample, clamped to [max_value] (the
    HdrHistogram "highest equivalent value" convention).  [0] when empty. *)

val percentile_lower : t -> float -> int
(** Lower-bound companion to {!percentile}: the low edge of the bucket
    holding the p-th percentile sample, clamped to [min_value].  Together
    the pair brackets the true percentile to within one sub-bucket
    (~6% relative width).  [0] when empty. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram equivalent to recording both inputs'
    sample streams into one table (counts add slot-wise; count/total/
    min/max combine); neither argument is modified.  Used to fold
    per-mutator latency histograms into whole-run percentiles. *)

val add_into : src:t -> dst:t -> unit
(** In-place {!merge}: fold [src]'s samples into [dst] ([src] is not
    modified).  The real-domains substrate records latencies into
    per-actor histograms; the whole-program totals sum them with this. *)

val iter : t -> (lo:int -> hi:int -> count:int -> unit) -> unit
(** Visit every non-empty bucket in increasing value order; [lo..hi] is the
    inclusive sample range the bucket covers. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** One-line summary: count, min/mean/p50/p90/p99/max. *)
