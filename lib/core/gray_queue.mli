(** The shared set of objects "remaining to be traced".

    The DLG papers leave the mechanism for tracking gray objects open; we
    use a single shared push/pop stack, represented as a growable int
    array (no allocation per shaded object).  Mutators push when their
    write barrier shades an object; the collector pushes during card
    scanning and root marking and pops during the trace.  Under the
    simulator's scheduling model each push/pop is one atomic step, which
    models a lock-free mark stack.

    An object is pushed at most once per cycle in steady state (only
    clear-colored — or, in the sync window, allocation-colored — objects
    are shaded, and shading recolors them gray), so duplicates are rare
    but tolerated: the trace re-checks the color of popped entries. *)

type t

val create : unit -> t

val set_locked : t -> bool -> unit
(** Arm (or disarm) an internal mutex around every operation.  Off by
    default — the cooperative substrate's interleavings are already
    one-step-atomic.  The real-domains driver arms it; the mutex then
    also provides the release/acquire edge that publishes a shading
    mutator's plain color write to the collector's trace. *)

val set_workers : t -> int -> unit
(** Shard the queue across [n] collector workers (Chase–Lev deque per
    worker) when [n > 1]; [n <= 1] restores the single shared queue.
    Mutator pushes keep going through the shared mutex queue either
    way.  Call only while no cycle is in flight. *)

val n_workers : t -> int
(** Number of worker deques currently armed (0 when unsharded). *)

val set_worker_id : t -> int -> unit
(** Tag the calling domain as collector worker [wid] (domain-local).
    Subsequent {!push}es from this domain go to its own deque when the
    queue is sharded.  The default tag is [-1] (mutator / shared). *)

val worker_id : t -> int
(** The calling domain's worker tag ([-1] if never set). *)

val push : t -> int -> unit
val pop : t -> int option
(** Pop from the shared queue only (workers draining mutator barrier
    pushes). *)

val pop_worker : t -> w:int -> int option
(** Collector worker [w]'s pop: its own deque (owner side, lock-free)
    when the queue is sharded, otherwise the shared queue.  Call only
    from worker [w]. *)

val steal : t -> victim:int -> int option
(** Steal from worker [victim]'s deque.  [None] = empty or lost race. *)

val is_empty : t -> bool
(** Shared queue and every worker deque observed empty (one moment
    each; the termination protocol re-validates with its activity
    counter). *)

val clear : t -> unit

val size : t -> int
(** Current number of queued entries (for tests and stats). *)

val max_size : t -> int
(** High-water mark since creation (for stats). *)
