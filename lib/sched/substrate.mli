(** Which execution substrate the current domain is running under.

    The core collector and runtime are written against simulated yield
    points: every shared-memory access calls {!yield} or {!wait_until}.
    Under the cooperative substrate ([Sim]) these delegate to the effects
    scheduler ({!Sched}) and the whole run is a deterministic function of
    its seed.  Under the real-domains substrate ([Domains]) every process
    is an OCaml 5 domain: {!yield} becomes a no-op (the hardware
    interleaves for real) and {!wait_until} becomes a spin-then-sleep
    poll.  The substrate is domain-local state, set by {!Parallel} when
    it spawns its domains, so core code stays substrate-agnostic.

    DESIGN §10 documents the yield-point → atomic mapping and the
    memory-ordering argument for each barrier store. *)

type kind = Sim | Domains

val current : unit -> kind
(** Substrate of the calling domain.  Defaults to [Sim]; {!Parallel.run}
    sets [Domains] in each domain it spawns. *)

val set_current : kind -> unit
(** Set the calling domain's substrate.  Exposed for tests and for
    {!Parallel}; workload code never calls it directly. *)

val yield : unit -> unit
(** A simulated-yield point.  [Sim]: {!Sched.yield}.  [Domains]: no-op,
    unless jitter is armed (see {!set_jitter}), in which case it may burn
    a short random spin to widen race windows for stress tests. *)

val yield_n : int -> unit
(** [n] consecutive {!yield}s.  [Sim]: {!Sched.yield_n}, which suspends
    once and sleeps through the rest.  [Domains]: [n] jitter points. *)

val wait_until : (unit -> bool) -> unit
(** Block until the predicate holds.  [Sim]: {!Sched.wait_until}.
    [Domains]: poll with {!Domain.cpu_relax} for a bounded spin, then
    back off to short sleeps — the predicate must become true through
    another domain's writes to atomics.

    Under [Sim] the predicate must not yield: the scheduler evaluates it
    outside the process, and a yield there raises [Invalid_argument].  A
    simulated wait that must cooperate with a fine-grained runtime loops
    on {!yield} instead. *)

val set_jitter : seed:int -> prob:float -> max_spin:int -> unit
(** Arm random spin delays at [Domains] yield points for the calling
    domain: with probability [prob] each {!yield} burns 1..[max_spin]
    {!Domain.cpu_relax} iterations.  Used by the parallel stress tests to
    widen the windows between barrier and handshake steps.  No effect
    under [Sim]. *)

val clear_jitter : unit -> unit
(** Disarm {!set_jitter} for the calling domain. *)

val jitter_config : unit -> (int * float * int) option
(** [(seed, prob, max_spin)] as armed on the calling domain, if any —
    {!Parallel.run} propagates the spawner's jitter into each child
    domain (re-seeded per domain so the delays differ). *)

(** The contract both substrates offer the driver: register named
    processes, then run them all to completion. *)
module type S = sig
  type t

  val spawn : t -> ?daemon:bool -> name:string -> (unit -> unit) -> unit
  (** Daemons do not keep {!run} alive; the run ends (or quiesces) when
      every non-daemon has finished. *)

  val run : t -> unit
end

module Cooperative : S with type t = Sched.t
(** {!Sched} seen through the substrate contract. *)
