(** The mutator-facing runtime: what application (workload) code calls.

    A runtime owns a simulated heap and one collector configuration, and
    exposes the JVM-like primitive operations — allocate, load, store,
    pure work — each of which hides the right write-barrier path,
    handshake polling ([Cooperate] runs at the top of every operation,
    modelling the paper's "backward branches and invocations"), allocation
    triggering, heap growth and allocation stalls.

    Usage: create the runtime, register mutators, spawn the collector as a
    daemon process and the mutator bodies as ordinary processes on the same
    scheduler, then [Sched.run].  All operations taking a {!Mutator.t} must
    be called from that mutator's process. *)

exception Out_of_memory
(** Raised by {!alloc} when a full collection that began after the stall
    did, plus maximal heap growth, still cannot satisfy a request. *)

type t

val create :
  ?heap_config:Otfgc_heap.Heap.config -> ?gc_config:Gc_config.t -> unit -> t

val state : t -> State.t
(** The shared state (read-mostly; for instrumentation and tests). *)

val heap : t -> Otfgc_heap.Heap.t
val stats : t -> Gc_stats.t
val cost : t -> Cost.t
(** The shared ledger's cost: crew worker 0's, and on the simulator
    every mutator's too.  Whole-program totals are {!State.totals}. *)

val events : t -> Event_log.t
(** {!recorder} under its former name, for the benchmark's copy of the
    simulator driver ({!Event_log}). *)

val telemetry : t -> Telemetry.t
(** The shared ledger's counters and latency histograms (see
    {!Telemetry} and {!cost}). *)

val sampler : t -> Sampler.t
(** The sampled-row store ({!Sampler.configure} arms the simulator's
    cadence; rows arrive via the {!Observatory} hooks, or from the
    observer domain on domains). *)

val set_fine_grained : t -> bool -> unit
(** Disable/enable micro-step yields (see {!State.t.fine_grained}).
    Benchmarks turn this off; correctness tests leave it on. *)

val set_parallel : t -> bool -> unit
(** Select the real-domains substrate: heap/registration locks engage, the
    gray queue locks, allocation goes through per-mutator caches, and
    each mutator registered afterwards charges a ledger of its own.  Must
    be set before
    any process starts (the driver does this); the default [false] keeps
    the simulator's behavior bit-identical. *)

val set_gc_workers : t -> int -> unit
(** Widen the collection crew to [n] workers (domains substrate only;
    set before any process starts): the gray queue shards into
    per-worker work-stealing deques, and card scan, trace and sweep run
    across the collector domain plus [n-1] helper domains spawned by
    the driver ({!gc_worker_loop}).  [n <= 1] keeps the width-1 crew
    every runtime starts with: the collector process runs each phase
    alone. *)

val gc_workers : t -> int
(** Crew width ([1] unless widened). *)

val recorder : t -> Flight_recorder.t
(** The event recorder (disarmed unless {!arm_recorder} ran). *)

val arm_recorder : t -> unit
(** Arm the event recorder (call after {!set_parallel} and before any
    process starts).  Every process gets its own event ring: the
    collector, each helper GC worker, each mutator registered
    afterwards, plus a dedicated handshake track.  The clock is the
    simulator's cost units, or wall-clock ns on domains.  Recording
    never yields, charges or touches pages, so armed or not, the
    simulator's results are identical. *)

val gc_worker_loop : t -> int -> unit
(** Helper worker body for worker id [wid] in [1..n-1]; spawn one daemon
    domain per helper after {!set_gc_workers}. *)

val drain_pools : t -> unit
(** Return every block stocked in the per-size-class pools to the free
    list.  The driver calls this at quiescence before the finale's full
    collections (pooled blocks are reserved and would otherwise count
    as live); allocation stalls call it internally. *)

(** {2 Threads} *)

val new_mutator : t -> name:string -> ?n_regs:int -> unit -> Mutator.t
(** Register a mutator (default 16 registers).  If a collection is in
    progress this waits for it to finish, so it must then be called from
    inside a process.  Safe to call from a running domain under the
    domains substrate: registration takes the registration lock, so it
    cannot race a cycle start. *)

val retire_mutator : t -> Mutator.t -> unit
(** The thread exits: stop including it in handshakes, drop its roots.
    Under the domains substrate this also drains the mutator's allocation
    cache back to the shared free list and flushes its batched allocation
    counters. *)

val spawn_collector : t -> Otfgc_sched.Sched.t -> Otfgc_sched.Sched.pid
(** Spawn {!Collector.collector_loop} as a daemon process. *)

val collector_loop : t -> unit
(** The collector daemon body, for substrates that spawn it themselves
    (the driver's domains path passes this to {!Otfgc_sched.Parallel}). *)

val shutdown : t -> unit
(** Ask the collector loop to exit after the current cycle. *)

(** {2 Mutator operations} *)

val alloc : t -> Mutator.t -> size:int -> n_slots:int -> int
(** Allocate an object ([Create] of Figure 1): picks the current allocation
    color, accounts the young-generation trigger, and on exhaustion
    stalls: it requests a full collection, then grows the heap, and
    raises {!Out_of_memory} if nothing helps.  A retry that fails while a
    cycle runs neither requests nor grows.

    The two substrates retry at different points.  The simulator retries
    at every scheduling step of the stall.  On domains the stalled
    mutator sleeps (still cooperating with handshakes) until
    [State.sweep_progress] moves, i.e. the sweep has freed more blocks,
    or the cycle ends; so a stall can end mid-cycle.  For that reason
    the domains verdict counts only full collections that began after
    the stall did ({!Gc_stats.n_begun_of}).

    {b Rooting contract}: there is no scheduling point between the
    allocation succeeding and [alloc] returning, so the caller can safely
    move the result into a register or stack slot.  It must do so before
    its next runtime operation: OCaml locals are not GC roots — only
    {!Mutator.t} registers and stack slots are (they model the machine
    registers real compiled code keeps references in). *)

val stall_wait_over : t -> Mutator.t -> progress:int -> bool
(** The domains stall's wake-up predicate, with the handshake poll the
    wait needs ({!cooperate}): [true] once [State.sweep_progress] differs
    from [progress] (read before the failed attempt), even while the
    cycle still runs, or once the collector is idle with no request
    pending. *)

val load : t -> Mutator.t -> x:int -> i:int -> int
(** [heap\[x,i\]] — no read barrier, as in DLG. *)

val store : t -> Mutator.t -> x:int -> i:int -> y:int -> unit
(** [heap\[x,i\] <- y] through the write barrier ([Update]). *)

val work : t -> Mutator.t -> int -> unit
(** Pure application work: polls the handshake, charges cost, then gives
    up one scheduling step per ~8 charged units ({!Otfgc_sched.Substrate.yield_n}). *)

val load_data : t -> Mutator.t -> x:int -> i:int -> int
(** Read scalar word [i] of object [x] — no barrier, like any non-pointer
    field access. *)

val store_data : t -> Mutator.t -> x:int -> i:int -> v:int -> unit
(** Write a scalar word — no write barrier (the paper's barrier covers
    reference stores only). *)

val cooperate : t -> Mutator.t -> unit
(** Explicit handshake poll (operations already do this). *)

val add_global : t -> int -> unit
(** Register a global root (e.g. a statics object). *)

(** {2 Direct collection control (tests, examples)} *)

val request_collection : t -> full:bool -> unit
(** Ask the collector daemon for a cycle if it is idle (no-op otherwise). *)

val collect_and_wait : t -> Mutator.t -> full:bool -> Gc_stats.cycle
(** The [System.gc()] analogue: request a collection of the given kind and
    block the calling mutator — cooperating with handshakes all the while —
    until that cycle completes.  Returns its statistics.  Requires a
    collector daemon on the current scheduler. *)
