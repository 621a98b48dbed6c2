(** Per-mutator allocation cache for the real-domains substrate.

    The simulator's allocation path takes one free-list pop per object;
    under real domains that would serialise every mutator on the heap
    lock.  Instead each mutator keeps a small cache of {e reserved}
    blocks — popped from the shared free list in batches under the lock,
    held as kind-[Allocated]/color-[Blue] sentinels the sweep skips — and
    the hot path hands out cached blocks with no synchronisation at all
    (the cache is owned by exactly one domain).

    The cache also batches the heap's allocation counters: issued bytes
    and objects accumulate in [pending] and are flushed under the heap
    lock at each refill and at retirement, so the shared totals are exact
    at quiescence without a per-allocation atomic.

    Blocks are binned by size in granules; only small sizes (under
    {!max_cached_bytes}) are cached — larger requests fall through to the
    locked slow path, exactly like a TLAB overflow allocation. *)

type t

val create : unit -> t

val max_cached_bytes : int
(** Requests at or above this size bypass the cache. *)

val n_classes : int
(** Number of size-class bins (sizes are binned by granule). *)

val class_of : size:int -> int
(** The size class a request is binned into (granule-rounded). *)

val cacheable : size:int -> bool

val get : t -> size:int -> int
(** Pop a reserved block of exactly [size] bytes, or
    {!Otfgc_heap.Heap.nil} ([-1]) when none is cached.  An [int], not an
    option, so the warm allocation path allocates nothing on the
    host. *)

val put : t -> size:int -> int -> unit
(** Add a reserved block (called during refill, under the heap lock). *)

val level : t -> size:int -> int
(** Cached blocks of the given size class. *)

val note_issued : t -> bytes:int -> unit
(** Record one object issued from the cache ([bytes] = its block size);
    accumulates into the pending counters. *)

val flush_pending : t -> Otfgc_heap.Heap.t -> unit
(** Add the bytes and objects issued since the last flush to the heap's
    totals ({!Otfgc_heap.Heap.add_alloc_stats}) and reset them.  Call
    under the heap lock. *)

val drain : t -> (int -> unit) -> unit
(** Empty every bin, passing each still-reserved block to the callback
    (which returns it to the free list under the heap lock).  Called at
    mutator retirement. *)
