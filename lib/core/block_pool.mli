(** Per-size-class pools of heap-reserved blocks, each behind its own
    mutex — the sharded tier between mutator allocation caches and the
    heap-locked free list on the domains substrate.

    Pooled blocks are reserved (kind Allocated, color Blue), so the
    sweep and every collector walk skip them; the collector never takes
    a class lock.  Lock ordering is class lock -> heap lock, never the
    reverse (DESIGN.md §11).  Unused under the simulator. *)

type t

val create : unit -> t

val n_classes : int
(** [Alloc_cache.n_classes + 1]: one shard per cacheable size class
    plus the ceiling class at coarse granules. *)

val class_of : size:int -> int
(** Same binning as [Alloc_cache] (granule-rounded size class). *)

val lock : t -> cls:int -> bool
(** Take class [cls]'s lock.  [true] iff the fast [try_lock] failed and
    the call had to block — the caller records it as a lock wait. *)

val lock_ns : t -> cls:int -> int
(** Timed {!lock}: nanoseconds spent blocked — [0] on the uncontended
    fast path, [>= 1] when the call had to wait (flight-recorder
    lock-wait spans; the caller still counts [> 0] as a lock wait). *)

val unlock : t -> cls:int -> unit

val pop : t -> cls:int -> int
(** Pop a pooled block, or {!Otfgc_heap.Heap.nil} ([-1]) when the class
    is empty: an [int], so a refill allocates nothing on the host.
    Caller must hold the class lock. *)

val push : t -> cls:int -> int -> unit
(** Stock a reserved block.  Caller must hold the class lock. *)

val level : t -> cls:int -> int
(** Current stock of a class (takes the lock; for tests/stats). *)

val drain : t -> (int -> unit) -> unit
(** Empty every shard through [f] (called with the class lock held; [f]
    may take the heap lock — the legal nesting order). *)
