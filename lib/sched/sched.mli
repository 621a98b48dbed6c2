(** Deterministic cooperative scheduler over OCaml effect handlers.

    The paper's collector runs concurrently with mutator threads and its
    correctness argument is about interleavings of individual loads and
    stores.  Instead of OS threads — which make those interleavings neither
    controllable nor reproducible — every simulated thread is a cooperative
    process that calls {!yield} at each shared-memory access.  A seeded
    scheduler then chooses which process advances at every step, so a whole
    multi-threaded GC run is a pure function of its seed, and property
    tests can drive adversarial schedules at will.

    Most steps of a simulation are no-ops: a pick of a process napping
    through {!yield_n}, or of one parked in {!wait_until} whose predicate
    is still false.  Such a step resumes nothing.  Under {!random_policy}
    it costs one inlined draw, the {!set_on_switch} hook call (if a hook
    is set), and then either one counter decrement or one predicate call,
    made with no exception handler around it.  It allocates nothing.  A
    step that resumes another process costs a continuation switch on top,
    several times more (the [sched:] micros of [bench/main.exe micro]).

    Typical use:
    {[
      let s = Sched.create ~policy:(Sched.random_policy (Rng.make 42)) () in
      let _m = Sched.spawn s ~name:"mutator" (fun () -> ... Sched.yield () ...) in
      let _c = Sched.spawn s ~daemon:true ~name:"collector" collector_loop in
      Sched.run s
    ]} *)

type t
(** A scheduler instance. *)

type pid
(** Process identifier, unique within one scheduler. *)

type policy
(** Strategy for choosing the next runnable process. *)

val round_robin : policy
(** Cycle through runnable processes in spawn order.  The default of
    {!create}; unit tests use it where they need a fixed interleaving. *)

val random_policy : Otfgc_support.Rng.t -> policy
(** Pick uniformly among runnable processes using the given generator
    (one draw per step, the one [Rng.int] makes; O(1) and allocation-free
    while no process has finished).  Every simulated run uses it — the
    workload driver, the benchmarks and the property tests — so a run's
    interleaving is a function of its seed.  The scheduler owns the
    generator: {!create} makes the first step's draw, and each step
    makes the next one, so the generator runs one draw ahead of the
    steps taken. *)

exception Stalled of string
(** Raised by {!run} when [max_steps] is exceeded — in this simulator that
    means a livelock (e.g. a handshake that never completes). *)

val create : ?policy:policy -> ?quantum:int -> unit -> t
(** [create ~policy ~quantum ()] makes an empty scheduler.  [quantum]
    (default 1) is how many consecutive yields a scheduled process may run
    before the policy picks again; larger quanta trade interleaving
    fineness for speed. *)

val spawn : t -> ?daemon:bool -> name:string -> (unit -> unit) -> pid
(** Register a process.  [daemon] processes (default [false]) do not keep
    {!run} alive: the run ends when every non-daemon process has finished.
    Processes may spawn further processes while running. *)

val yield : unit -> unit
(** Give the scheduler a chance to switch to another process.  Must be
    called from inside a spawned process; calling it elsewhere raises
    [Failure].

    The scheduling steps that follow run on the yielding process's own
    fiber for as long as they resume no other process: napped picks,
    parked predicates that are false, and a pick of the yielding process
    itself, after which [yield] simply returns.  The process suspends
    only to hand the CPU to another process.  So {!wait_until}
    predicates and the {!set_on_switch} hook may run on the yielding
    process's fiber, in exactly the order {!run} would call them; what
    they raise there is re-raised by {!run}, never inside the yielding
    process. *)

val yield_n : int -> unit
(** [yield_n n] behaves exactly like [n] consecutive {!yield}s (none when
    [n <= 0]): the same picks, the same {!steps} and the same
    {!set_on_switch} calls.  Only the first one suspends the process; the
    scheduler then spends the next [n - 1] picks of it by decrementing a
    counter, without resuming it. *)

val wait_until : (unit -> bool) -> unit
(** [wait_until p] behaves exactly like [while not (p ()) do yield () done]:
    [p] is checked once before suspending, and then once at every pick of
    the process.  After the first check, the scheduler evaluates [p]
    itself.  It resumes the process only when [p ()] holds, so waiting
    costs a predicate call per step, not a context switch.  Like the loop,
    it returns at once outside a process when [p ()] already holds.

    [p] must not yield.  It runs outside the waiting process (in
    {!run}, or on the fiber of another process that is yielding), and a
    {!yield},
    {!yield_n} or nested [wait_until] inside [p] raises [Invalid_argument].
    A wait that must do scheduling work on every iteration (for instance
    answering handshakes with a fine-grained runtime) is written as an
    explicit loop: [while not (work (); cond ()) do yield () done]. *)

val self_name : unit -> string
(** Name of the currently running process (for trace messages). *)

val run : ?max_steps:int -> t -> unit
(** Execute until all non-daemon processes finish.  A process raising an
    exception aborts the run and re-raises it.  Raises {!Stalled} after
    [max_steps] scheduling steps (default [max_int]). *)

val steps : t -> int
(** Number of scheduling steps (policy picks) performed so far.  Picks
    that a napping or parked process spends without resuming count too. *)

val finished : t -> pid -> bool
(** Whether the given process has run to completion. *)

val set_on_switch : t -> (string -> unit) option -> unit
(** Hook invoked with the process name each time a process is given the
    CPU, including the turns a napping or parked process spends without
    being resumed.  It may run on the fiber of the process that yielded
    last (see {!yield}). *)
