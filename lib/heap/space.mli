(** Block-structured address space.

    The heap is a contiguous run of granule-aligned blocks, each either
    allocated or free, described by side tables (a kind byte per granule
    plus block sizes recorded at both the first and last granule of each
    block — boundary tags — so that both address-order iteration and
    backward coalescing are O(1)).

    This module only manages the block structure; object contents, colors
    and the free lists live elsewhere.  The space can grow (the paper's
    JVM grows the heap from 1 MB towards a 32 MB maximum).

    The space also maintains an object-start {e crossing map}: for every
    [card_size]-byte window it records the first block start inside the
    window (or that there is none), updated in O(1) on split, coalesce and
    grow.  The collector's card scan uses it through
    {!iter_block_starts_on_card} to enumerate the objects of a dirty card
    without probing granule by granule. *)

type t

type kind = Free | Allocated

val create : ?card_size:int -> initial_bytes:int -> max_bytes:int -> unit -> t
(** A space with one free block of [initial_bytes].  Both sizes are rounded
    up to whole granules; [initial_bytes <= max_bytes] required.
    [card_size] fixes the window granularity of the crossing map (a power
    of two >= the granule, default one granule); the heap passes its card
    table's card size so the two agree on card indices. *)

val capacity : t -> int
(** Current size in bytes (growable up to [max_capacity]). *)

val max_capacity : t -> int

val grow : t -> want_bytes:int -> (int * int) option
(** [grow t ~want_bytes] extends the space by [want_bytes] (or as much as
    remains, if less but non-zero), returning the address and size of the
    new trailing free block.  The new block is {e not} merged with a
    preceding free block — block boundaries ahead of a concurrently
    sweeping cursor must never disappear; the next sweep merges the seam.
    [None] if the space is already at maximum capacity. *)

val is_block_start : t -> int -> bool
val is_allocated_start : t -> int -> bool
(** [is_allocated_start t a] holds iff [a] starts an allocated block.
    Total: a negative, unaligned, interior or out-of-range [a] gives
    [false]. *)

val kind_of : t -> int -> kind
(** Kind of the block starting at the given address.  Raises
    [Invalid_argument] if the address is not a block start. *)

val block_size : t -> int -> int
(** Size in bytes of the block starting at the given address. *)

val unsafe_kind : t -> int -> kind
(** Like {!kind_of} with no alignment or block-start validation; the
    address {e must} be a granule-aligned block start below the current
    capacity.  For iteration hot loops that walk header to header and so
    establish the precondition structurally (sweep, {!iter_blocks}). *)

val unsafe_size : t -> int -> int
(** Like {!block_size}, same precondition as {!unsafe_kind}. *)

val find_block_start : t -> int -> int
(** [find_block_start t a] is the start address of the block containing
    byte address [a] (walks backward over interior granules; O(block
    size)). *)

val set_kind : t -> int -> kind -> unit
(** Flip a block between allocated and free without changing its extent. *)

val unsafe_free : t -> int -> unit
(** [set_kind t addr Free] with no check: [addr] {e must} be an allocated
    block start below the current capacity (the sweep's walk). *)

val split : t -> int -> first_bytes:int -> int
(** [split t addr ~first_bytes] splits the free block at [addr] so that the
    first part has exactly [first_bytes] (granule-rounded) bytes; returns
    the address of the second part, which remains free.  Raises
    [Invalid_argument] if the block is allocated or too small to split. *)

val coalesce_with_next : t -> int -> bool
(** [coalesce_with_next t addr] merges the free block at [addr] with its
    successor if that successor exists and is free.  Returns whether a
    merge happened.  The successor's block identity disappears; callers
    maintaining free lists must tolerate stale entries. *)

val unsafe_merge_prev : t -> int -> int
(** [unsafe_merge_prev t addr] merges the free block at [addr] into its
    predecessor if that predecessor is free, and returns the merged
    block's start; it returns [-1], changing nothing, when [addr] is 0 or
    the predecessor is allocated.  [coalesce_with_next] of the preceding
    block, without the options and re-validation: [addr] {e must} be a
    free block start below the current capacity, as the sweep's
    header-to-header walk guarantees. *)

val next_block : t -> int -> int option
(** Start of the block following the one at the given address, or [None]
    at the end of the current capacity. *)

val prev_block : t -> int -> int option
(** Start of the preceding block, or [None] at address 0. *)

val iter_blocks : t -> (int -> kind -> int -> unit) -> unit
(** [iter_blocks t f] calls [f addr kind size_bytes] for every block in
    address order.  [f] must not change the block structure at or after
    the current address. *)

type tally = { mutable blocks : int; mutable bytes : int }
(** A running count and byte total, owned by the caller of
    {!allocated_with_tag} and added to by each call. *)

val allocated_with_tag :
  t -> tags:Bytes.t -> char -> tally -> from:int -> stride:int -> int
(** [allocated_with_tag t ~tags c tally ~from ~stride] walks at most
    [stride] blocks header to header, starting at the block start
    [from], and adds to [tally] the number and the total bytes of the
    allocated blocks among them whose start granule [i] has
    [Bytes.get tags i = c].  It returns the start of the next block to
    walk, or [-1] when the walk reached the current capacity, so a
    whole-space count is a loop from [from:0] until [-1].  No callback
    and no host allocation.

    The returned cursor is computed before the call returns, so a caller
    that holds a lock across one call only may release it between calls
    as long as nothing in between merges blocks or shrinks the space:
    splitting a free block ahead of the cursor, or flipping a block's
    kind, keeps the cursor a block start (and a split-off block ahead of
    it is walked).  [tags] is a per-granule side table (the heap passes
    its colour table).  Raises [Invalid_argument] if [tags] is shorter
    than the current capacity in granules, if [stride < 1] or if [from]
    is not a block start. *)

val iter_block_starts_on_card : t -> int -> (int -> kind -> int -> unit) -> unit
(** [iter_block_starts_on_card t card f] calls [f addr kind size_bytes]
    for every block whose start address lies in card [card] (a
    [card_size]-byte window, per {!create}), in address order: one O(1)
    crossing-map lookup, then header-to-header hops.  [f] must not change
    the block structure.  Out-of-range card indices iterate nothing. *)

val allocated_bytes : t -> int
(** Total bytes currently in allocated blocks. *)

val allocated_blocks : t -> int
(** Number of allocated blocks, kept by {!set_kind}; O(1). *)

val free_bytes : t -> int
(** Total bytes currently in free blocks (= capacity - allocated). *)

val check : t -> (unit, string) result
(** Verify structural invariants (contiguity, boundary-tag agreement,
    accounting, crossing-map consistency); used by tests. *)
