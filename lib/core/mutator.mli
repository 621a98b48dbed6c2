(** A mutator thread's GC-visible state.

    Each simulated application thread owns one of these: its handshake
    status and its root set (the "stack and registers" of the paper —
    reference slots that the write barrier does {e not} cover and that the
    mutator itself marks gray when responding to the third handshake).

    The root set is a fixed-size register file plus an unbounded stack;
    workloads use registers for working references and the stack to model
    call frames. *)

type t

val create : id:int -> name:string -> n_regs:int -> t

val id : t -> int
val name : t -> string

val status : t -> Status.t
(** The handshake status word.  Stored in an [Atomic.t]: under the
    real-domains substrate the collector polls it from another domain,
    and the ack in [Cooperate] is the release store that publishes the
    mutator's preceding root-marking writes. *)

val set_status : t -> Status.t -> unit

val active : t -> bool
(** An inactive (retired) mutator no longer participates in handshakes.
    Atomic, for the same cross-domain poll. *)

val retire : t -> unit

(** {2 Real-domains substrate extensions}

    Unused under the cooperative substrate: the cache stays empty and the
    ledgers stay [None], so simulated runs are bit-identical. *)

val cache : t -> Alloc_cache.t
(** This mutator's domain-local allocation cache. *)

val own_cost : t -> Cost.t option
val own_telemetry : t -> Telemetry.t option

val set_own_ledgers : t -> Cost.t -> Telemetry.t -> unit
(** Give the mutator private cost/telemetry ledgers (installed by
    [Runtime.new_mutator] when the runtime is in parallel mode; folded
    into the shared ledgers at end of run). *)

val ring : t -> Flight_recorder.ring option
(** This mutator's event-recorder track, when the recorder is armed;
    [None] means every record site is a no-op. *)

val set_ring : t -> Flight_recorder.ring option -> unit

(** {2 Registers} *)

val n_regs : t -> int

val get_reg : t -> int -> int
(** Contents of register [i]; {!Otfgc_heap.Heap.nil} when empty. *)

val set_reg : t -> int -> int -> unit
val clear_reg : t -> int -> unit

(** {2 Stack} *)

val push : t -> int -> unit
val pop : t -> int
(** Raises [Invalid_argument] on an empty stack. *)

val stack_depth : t -> int

val iter_roots : t -> (int -> unit) -> unit
(** Every non-nil root: registers then stack.  This is what gets marked
    gray at the third handshake. *)
