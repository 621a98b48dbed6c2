(** Shared collector/mutator state — the memory both sides race on.

    One value of this type corresponds to the process-wide state of the
    paper's JVM: the heap and its side tables, the collector's posted
    status, the two toggling color names, the "collector is tracing" flag
    read by write barriers, the gray set, triggers, and the ledgers.

    The record is deliberately transparent: the collectors in this library
    are the paper's Figures 1–6 transliterated, and hiding every field
    behind accessors would only obscure the correspondence.  Outside code
    should treat it as read-only and go through {!Runtime}.

    The fields both sides race on are [Atomic.t]: under the cooperative
    substrate an atomic get/set is one simulated step, exactly as the
    plain loads and stores were, so schedules — and every simulated
    figure — are unchanged; under the real-domains substrate they carry
    the inter-domain orderings DESIGN §10 spells out. *)

type gc_request = No_request | Want_partial | Want_full

type t = {
  heap : Otfgc_heap.Heap.t;
  cfg : Gc_config.t;
  (* handshake machinery *)
  status_c : Status.t Atomic.t;  (** status posted by the collector *)
  mutable mutator_slots : Mutator.t array;
      (** registry backing store; read through {!iter_mutators} (count
          first, then the array — the publication order) *)
  n_mutators : int Atomic.t;
  mutable globals : int list;   (** global roots, marked by the collector *)
  (* colors *)
  mutable allocation_color : Otfgc_heap.Color.t;
      (** [Generational]/[Generational_aging]: the color newly created
          objects get ("yellow" while a cycle runs).  [Non_generational]:
          the mark color — what the trace recolors live objects to.
          Plain on purpose: only the collector writes it, and the
          handshake protocol bounds every mutator's staleness (DESIGN
          §10). *)
  mutable clear_color : Otfgc_heap.Color.t;
      (** the color the sweep reclaims *)
  (* phase flags, each written only by the collector *)
  tracing : bool Atomic.t;    (** the barrier's "Collector is tracing" *)
  sweeping : bool Atomic.t;   (** sweep in progress (create-color decision) *)
  collecting : bool Atomic.t; (** a collection cycle is in progress *)
  sweep_progress : int Atomic.t;
      (** bumped by the sweep once per 64 blocks it frees and once at the
          end of each crew worker's region: a stalled allocator on the
          domains substrate retries when this moves, instead of waiting
          for the whole cycle to end ({!Runtime.alloc}) *)
  gc_request : gc_request Atomic.t;
  bytes_since_gc : int Atomic.t;
  shutdown : bool Atomic.t;
  (* instrumentation *)
  gray : Gray_queue.t;
  stats : Gc_stats.t;
  recorder : Flight_recorder.t;
      (** per-process event rings (disarmed by default — one option
          check per record site; armed via [Runtime.arm_recorder]) *)
  telemetry : Telemetry.t;
      (** counters and latency histograms (histograms off by default) *)
  mutable cur_cycle : Gc_stats.cycle option;
  pages : Otfgc_heap.Page_set.t;
  cost : Cost.t;
  card_cache : Card_cache.t;
  remset_cache : Card_cache.t;
      (** locality model for the remembered set's dedup-flag table *)
  mutable tenure_threshold : int;
      (** survivals before tenure for [Generational_adaptive]; adjusted by
          the collector from each partial collection's survival rate *)
  mutable fine_grained : bool;
      (** yield inside barrier/shade micro-steps (on for race testing, off
          for long benchmark runs — see DESIGN.md) *)
  mutable collector_speed : int;
      (** work units the collector performs per scheduling slot: it
          yields once per ~[collector_speed] units, so that simulated time
          advances proportionally to work on both sides (default 8,
          matching one mutator-operation's worth).  The pacing counter
          itself is collector-private ([Gc_par.worker.pace] of worker 0):
          mutators read this record on every operation, so the collector
          does not write it per tick.  The scheduler gives
          every process equal slots — each thread owns a CPU — so when
          reproducing the paper's 4-way machine with more threads than
          CPUs, the driver raises this: the collector keeps a whole CPU
          while the mutators share what remains, making it ~N/3 times
          faster than each of N > 3 mutators. *)
  sampler : Sampler.t;
      (** census sampling cadence and series (off by default); driven by
          {!Observatory} from the runtime/collector sampling hooks *)
  (* real-domains substrate *)
  mutable parallel : bool;
      (** running on real domains; set once by the driver before any
          process starts *)
  heap_lock : Mutex.t;
      (** guards the space/free-list structure (block boundaries, kinds,
          free-list entries, allocation counters) in parallel mode *)
  reg_lock : Mutex.t;
      (** guards mutator registration against cycle starts *)
  par : Gc_par.t;
      (** the collection crew every phase runs on: worker 0 alone
          (aliasing [cost], [telemetry] and [pages]) unless the driver
          widens it with [--gc-workers] > 1 on the domains substrate *)
  pool : Block_pool.t;
      (** per-size-class pools of reserved blocks — the sharded middle
          tier of the domains allocation path *)
}

val create : Otfgc_heap.Heap.t -> Gc_config.t -> t
(** Fresh idle state: status [Async], allocation color {!Otfgc_heap.Color.C0},
    clear color [C1], nothing requested, cooperative substrate. *)

val step : t -> unit
(** Fine-grained scheduling point: yields iff [fine_grained] (a no-op or
    stress jitter under the domains substrate). *)

(** {2 Mutator registry} *)

val register_mutator : t -> Mutator.t -> unit
(** Append to the registry — O(1) amortised.  In parallel mode callers
    must hold [reg_lock]. *)

val iter_mutators : t -> (Mutator.t -> unit) -> unit
(** All registered mutators, in registration order; safe to call from any
    domain concurrently with registration. *)

val mutators : t -> Mutator.t list
(** {!iter_mutators} as a list. *)

val active_mutators : t -> Mutator.t list

val for_all_active_mutators : t -> (Mutator.t -> bool) -> bool
(** Allocation-free [List.for_all p (active_mutators t)] — the handshake
    completion poll, run once per wait iteration on the domains
    substrate. *)

val count_active_mutators : t -> int

(** {2 Parallel-mode helpers} *)

val lock_heap : t -> unit
(** Take [heap_lock] iff [parallel] (no-ops under the simulator, so the
    cooperative schedule is untouched). *)

val unlock_heap : t -> unit

val mcost : t -> Mutator.t -> Cost.t
(** The ledger mutator-context work is charged to: the shared ledger
    under the simulator (bit-identical to the historical behavior), the
    mutator's own under real domains. *)

val mtelemetry : t -> Mutator.t -> Telemetry.t
(** Likewise for telemetry counters/instruments hit from mutator code. *)

val now_units : t -> int
(** Timestamp for latency instruments: {!Cost.elapsed_multi} (simulated
    units) under the simulator, real microseconds under domains. *)

val young_color : t -> Otfgc_heap.Color.t -> bool
(** Whether an object of the given color belongs to the young generation
    under the simple promotion policy (i.e. is not black). *)
