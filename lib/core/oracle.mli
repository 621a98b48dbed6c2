(** Stop-the-world reachability oracle for differential testing.

    Computes reachability atomically (no yields), which in the simulator is
    a legal "instantaneous" snapshot.  Tests use it to check the two
    properties the paper's correctness argument promises:

    - {b safety}: no reachable object is ever blue/freed — checked at any
      instant, including mid-cycle under adversarial schedules;
    - {b completeness}: after quiescence and two full collections, no
      garbage remains (one cycle may leave floating garbage by design).

    The simulated collector also runs it at the end of every cycle to
    measure floating garbage ({!floating}), so it is a hot path.  Every
    pass marks with {!Otfgc_heap.Heap}'s mark kernel into the state's own
    scratch ([State.marks]): the granule bitmap is cleared with one fill,
    the [int array] stack is reused, and the pass counts the live objects
    and their bytes as it marks.  Its time is linear in the reachable
    objects; {!floating} subtracts the counts from the heap's block
    counters instead of walking the blocks, and only {!iter_garbage} and
    {!garbage} walk them.  One pass at a time per state: a callback
    given to {!iter_garbage} must not call the oracle on the same state. *)

val check_safety : State.t -> (unit, string) result
(** [Error] names the first non-nil root or slot value met during marking
    that is not an allocated object (it points at freed, never-allocated,
    out-of-range or unaligned memory).  Never raises on such a value. *)

val floating : State.t -> int * int
(** The objects and bytes allocated but not reachable:
    [Heap.object_count] and [Heap.allocated_bytes] less the pass's live
    counts — the totals of {!iter_garbage}, without its block walk.
    Exact only when every allocated block is an object, which holds on
    the simulator; a domains allocation cache's reserved blocks are
    allocated but not objects, so it raises [Invalid_argument] on a
    [parallel] state (use {!iter_garbage} there). *)

val iter_garbage : State.t -> (int -> unit) -> unit
(** [iter_garbage st f] marks the reachable objects, then calls [f] on
    every allocated object left unmarked, in address order, without
    building a list.  [f] must not change the heap's block structure. *)

val garbage : State.t -> int list
(** Allocated objects not reachable from any root, in address order
    ({!iter_garbage} collected into a list). *)

val live_count : State.t -> int
(** Number of reachable allocated {e objects}.  A dangling root or slot
    value is not counted; reporting it is {!check_safety}'s job. *)

val check_intergen_invariant : State.t -> (unit, string) result
(** The generational collectors' load-bearing invariant: every pointer
    from an old (black) object to a young object lies on a dirty card (or
    its source is in the remembered set).  Only meaningful at quiescent
    instants — the aging barrier's store-then-mark ordering leaves a legal
    transient window mid-run — and trivially [Ok] for the
    non-generational collector. *)
