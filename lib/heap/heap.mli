(** The simulated Java heap: block space + free lists + object slots +
    color/age/card side tables.

    Objects are non-moving blocks with a granule-aligned start address, a
    byte size and a number of pointer slots.  Pointer slots hold object
    addresses or {!nil}.

    Object contents live in one flat word array, one [int] word per 8
    heap bytes, laid out as in the paper's JVM: the object at [addr]
    starts at word [addr / 8] with a 16-byte header — a header word
    holding [n_slots + 1] and a pad word — followed by its [n_slots]
    pointer slots and then its scalar words, up to the end of its block.
    A header word of 0 marks a block with no object layout: {!free}
    zeroes it, and so does {!reserve}.  The accessors below validate the
    address ({!is_object}) and the index, and raise [Invalid_argument]
    otherwise.  Colors live in a side table (one byte per
    granule); the collectors read and write them through {!color} /
    {!set_color}, which are single atomic steps under the simulator's
    scheduling model.

    This module performs no garbage collection itself — the collectors in
    [lib/core] drive it — and no synchronisation: each exported operation
    models one atomic action of the paper's machine model (individual
    loads/stores are atomic; allocation is atomic because DLG mutators
    allocate from thread-local buffers). *)

type t

type config = {
  initial_bytes : int;  (** starting heap size (paper: 1 MB) *)
  max_bytes : int;      (** hard maximum (paper: 32 MB) *)
  card_size : int;      (** card-marking granularity, 16..4096 *)
}

val default_config : config
(** 1 MB initial, 8 MB max, 16-byte cards — the simulator's scaled-down
    defaults (see DESIGN.md section 4). *)

val create : config -> t

val config : t -> config
val space : t -> Space.t
val cards : t -> Card_table.t
val ages : t -> Age_table.t

(* The remembered set used when the collector is configured with
   remembered-set inter-generational tracking instead of card marking. *)
val remset : t -> Remset.t

(* The segregated free lists (read-only occupancy view for the census:
   [Freelist.entry_count] / [Freelist.stale_entries]). *)
val freelist : t -> Freelist.t
val layout : t -> Layout.tables

val nil : int
(** The null pointer ([-1]). *)

(** {2 Allocation} *)

val alloc : t -> size:int -> n_slots:int -> color:Color.t -> int option
(** Allocate a block of at least [size] bytes (granule-rounded) with
    [n_slots] pointer slots initialised to {!nil}, painted [color], age 0.
    Returns the object's address, or [None] if no free block fits (the
    caller decides whether to grow or to wait for the collector).
    [n_slots * 8 + 16 <= size] must hold: slots are 8-byte fields behind a
    16-byte header, as in the prototype JVM. *)

val free : t -> int -> unit
(** Reclaim the object at the given address: paint it {!Color.Blue},
    zero its header word and return its block to the free lists.  Does not
    coalesce — sweep does, via {!merge_free_prev}. *)

val unsafe_free : t -> int -> unit
(** {!free} without checking that the address is an allocated object,
    which the caller guarantees: the sweep, whose header-to-header walk
    reaches only block starts and frees only allocated ones. *)

(** {2 Reserved blocks (real-domains allocation caches)}

    A reserved block is claimed by one mutator's domain-local cache but
    not yet an object: kind [Allocated] (no other allocation can take
    it), color {!Color.Blue} (every collector walk skips it).  The
    simulator never creates this state.  {!reserve} and
    {!release_reserved} change shared block structure — call them under
    the runtime's heap lock; {!issue} touches only the block's own
    entries and is called lock-free by the owning mutator. *)

val reserve : t -> size:int -> int option
(** Pop a free block of exactly [size] bytes and park it reserved.  Does
    not touch the allocation counters ({!add_alloc_stats} flushes them in
    batches when objects are actually issued). *)

val issue : t -> int -> n_slots:int -> color:Color.t -> int
(** Turn a reserved block into a live object: write its header, its
    [n_slots] pointer slots at {!nil} and its zeroed scalar words, then
    paint [color] and set age 0.  The words are written before the
    color, so a collector that learns of the object through a
    synchronising path (the gray-queue mutex, a handshake) reads them
    initialised.  Returns the
    block's real byte size, which the caller accumulates for
    {!add_alloc_stats}. *)

val release_reserved : t -> int -> unit
(** Return a still-reserved block to the free list (cache drain at
    mutator retirement). *)

val add_alloc_stats : t -> bytes:int -> objects:int -> unit
(** Batched counterpart of the counter updates {!alloc} performs inline:
    add issued bytes/objects to the lifetime totals. *)

val merge_free_prev : t -> int -> int
(** [merge_free_prev t addr] merges the free block at [addr] into its
    predecessor if that predecessor is also free, returning the merged
    block's start (and pushing it to the free lists); otherwise returns
    [addr] unchanged.  Sweep calls this on every free block it passes, so
    runs of free blocks coalesce leftward without ever disturbing block
    boundaries ahead of the sweep cursor.  No check: [addr] {e must} be a
    free block start below the capacity, as the sweep's header-to-header
    walk guarantees. *)

val grow : t -> want_bytes:int -> bool
(** Extend the heap towards [max_bytes]; [false] if already at maximum. *)

(** {2 Objects} *)

val is_object : t -> int -> bool
(** Whether an allocated object starts at the given address. *)

val size : t -> int -> int
(** Byte size of the object (its whole block). *)

val n_slots : t -> int -> int

val get_slot : t -> int -> int -> int
(** [get_slot t x i] is slot [i] of object [x] ([heap\[x,i\]]), possibly
    {!nil}. *)

val set_slot : t -> int -> int -> int -> unit
(** [set_slot t x i y] performs the raw store [heap\[x,i\] <- y] with no
    barrier — the collectors wrap it. *)

val unsafe_get_slot : t -> int -> int -> int
(** {!get_slot} without validation: the address {e must} be an object and
    the index below its {!n_slots}.  For collector loops that validate
    once per object (through {!n_slots}) and then read every slot. *)

val iter_slots : t -> int -> (int -> unit) -> unit
(** Apply to every non-{!nil} slot value of the object, validating the
    address once. *)

(** {2 Scalar fields}

    The bytes of an object beyond its header and pointer slots are scalar
    (non-pointer) 8-byte words — character data, numbers.  They carry no
    write barrier: the collector never needs to see them (the paper's
    barrier fires only on stores of references). *)

val n_data : t -> int -> int
(** Number of scalar words of the object. *)

val get_data : t -> int -> int -> int
val set_data : t -> int -> int -> int -> unit

val color : t -> int -> Color.t
val set_color : t -> int -> Color.t -> unit

val iter_objects : t -> (int -> unit) -> unit
(** Every allocated object address, in address order.  The callback must
    not free objects at or after the current address (sweep uses the block
    iteration below instead). *)

val iter_objects_on_card :
  t -> scratch:int array ref -> int -> (int -> unit) -> unit
(** Apply to the address of every allocated object whose start address
    lies on the given card, in address order (an object "on a card" in
    the paper's sense: the card scan walks objects starting on the card).
    Powered by the space's crossing map — one lookup, then
    header-to-header hops — with no per-card allocation: the object set
    is snapshotted into the caller-owned [scratch] buffer (grown in place
    as needed) before the callback runs, so the iteration is
    insensitive to blocks the callback (or a mutator at one of its
    scheduling points) splits on the card.  Parallel collector workers
    each pass their own buffer, so they never share snapshot state. *)

val objects_on_card : t -> int -> int list
(** Same object set as a fresh list; for tests — the collector uses
    {!iter_objects_on_card}. *)

(** {2 Accounting} *)

val capacity : t -> int
val max_capacity : t -> int
val allocated_bytes : t -> int
val free_bytes : t -> int
val total_allocated_bytes : t -> int
(** Cumulative bytes ever allocated. *)

val total_allocated_objects : t -> int

val reset_allocation_stats : t -> unit
(** Zero the cumulative allocation counters (end-of-warmup reset). *)

val object_count : t -> int
(** Number of allocated blocks (objects, plus blocks reserved by a
    domains-substrate allocation cache); O(1), read from {!Space}. *)

val check : ?check_slots:bool -> t -> (unit, string) result
(** Structural invariants: space consistency, free blocks are blue,
    allocated objects are not blue and — with [check_slots] (default
    [true]) — slot pointers reference allocated objects or nil.  The slot
    check is only meaningful at quiescence after garbage has been fully
    collected: an {e unreachable} object may legitimately point to an
    already-reclaimed one mid-run (sweep order, floating garbage), which is
    harmless precisely because nothing reachable can see it. *)
