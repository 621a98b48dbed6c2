(** Segregated free lists over a {!Space.t}.

    Allocation policy: exact-fit from the size class, then best-effort
    split of a block from a larger class.  Each class is an int-array
    stack (entries pushed LIFO) and a one-word occupancy bitmap locates
    the smallest non-empty class with a single ctz probe, so the common
    [pop] is allocation-free and touches no empty class.  Because sweeping
    coalesces neighbouring free blocks behind the list's back, entries may
    go stale — [pop] validates each candidate against the space and
    discards stale ones in place (the standard trick for lock-free
    sweeping allocators, and cheap here), counting the discards.

    The DLG collector relies on thread-local allocation buffers to avoid
    mutator/collector contention; in the simulator every free-list
    operation is a single atomic step, which models the same absence of
    fine-grained interference. *)

type t

val create : Space.t -> t
(** Free lists seeded with every free block currently in the space. *)

val push : t -> int -> unit
(** [push t addr] registers the free block starting at [addr]. *)

val pop : t -> bytes_wanted:int -> int
(** [pop t ~bytes_wanted] removes and returns the address of a free block
    resized to exactly [bytes_wanted] (granule-rounded): an exact-class
    block if available, otherwise a larger block is split and its remainder
    pushed back.  The returned block is still [Free] in the space; the
    caller marks it allocated.  [-1] if nothing fits. *)

val rebuild : t -> unit
(** Drop all entries and re-seed from the space's current free blocks.
    Used after bulk coalescing at the end of a sweep. *)

val class_of_bytes : int -> int
(** Size-class index used internally; exposed for tests. *)

val entry_count : t -> int
(** Number of (possibly stale) entries currently queued; O(1). *)

val stale_entries : t -> int
(** Cumulative count of stale entries discarded by [pop] since creation
    ({!rebuild} drops entries wholesale and does not count them) — the
    invalidation pressure the sweep's coalescing puts on the lists; for
    stats and benchmarks. *)
