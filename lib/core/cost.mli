(** Deterministic work-unit cost model.

    The paper measures elapsed time on a dedicated machine whose CPUs are
    kept saturated (four copies of each application on the 4-way SMP), so
    elapsed time is proportional to total CPU work consumed by mutators
    plus collector.  The simulator makes that quantity explicit: every
    mutator action, barrier path and collector step adds a fixed number of
    work units to a ledger.  Experiments compare ledgers, never wall-clock.

    Two derived "elapsed time" metrics (see DESIGN.md):
    - multiprocessor: [mutator + collector] work (all CPUs busy, so
      collector cycles are paid for);
    - uniprocessor: the same plus the allocation-stall work (a mutator
      spinning on an exhausted heap while the collector runs serially
      costs real time on one CPU). *)

type t

val create : unit -> t

(** {2 Attribution axes}

    Every collector charge is additionally binned under the phase the
    collector declared via {!set_phase}, and every mutator charge under a
    category chosen at the charge site, so telemetry can answer "where
    inside a cycle does the work go" without changing any total: the
    per-phase (per-category) sums equal {!collector_work}
    ({!mutator_work}) by construction.  Binning is a single array
    increment — allocation-free and always on. *)

type phase = Idle | Clear | Handshake | Card_scan | Trace | Sweep

val phases : phase list
(** All phases, in {!phase_index} order. *)

val phase_name : phase -> string
val phase_index : phase -> int

type category = App | Barrier_fast | Barrier_slow | Card_mark
(** Mutator work classes: application progress (compute, raw loads and
    stores, allocation fast path), the barrier's always-on checks and
    handshake polls, the barrier's shading slow path (graying values in
    the sync window or while tracing, root marking at the third
    handshake), and inter-generational recording (card dirtying or
    remembered-set appends, including their cache-miss surcharges).
    Stalls keep their own headline counter ({!stall_work}). *)

val categories : category list
val category_name : category -> string

(** {2 Charging} *)

val mutator : t -> int -> unit
(** Work performed by application code, attributed to {!App}. *)

val mutator_cat : t -> category -> int -> unit
(** Work performed by application code, attributed to the given class. *)

val collector : t -> int -> unit
(** Work performed by the collector thread (attributed to the current
    phase). *)

val stall : t -> int -> unit
(** Mutator cycles burned waiting for memory. *)

val set_phase : t -> phase -> unit
(** Declare the collector phase subsequent collector charges belong to.
    Only the collector calls this. *)

val current_phase : t -> phase

(** {2 Reading} *)

val mutator_work : t -> int
val collector_work : t -> int
val stall_work : t -> int

val phase_work : t -> phase -> int
(** Collector work charged under a phase; sums to {!collector_work}. *)

val category_work : t -> category -> int
(** Mutator work charged under a category; sums to {!mutator_work}. *)

val elapsed_multi : t -> int
(** Saturated-SMP elapsed-time proxy: mutator + collector + stall work
    (the benchmark copy's clock keeps running while its mutator stalls,
    even though other copies use the CPU). *)

val elapsed_uni : t -> int
(** Uniprocessor elapsed-time proxy: stalls weigh double — nothing else
    makes progress while the only CPU waits on the collector. *)

val reset : t -> unit
(** Zero the ledger (end-of-warmup measurement reset). *)

val merge_into : src:t -> dst:t -> unit
(** Add every counter of [src] into [dst] ([src] unchanged).  The
    real-domains substrate gives each actor its own ledger to avoid racy
    increments; [Ledger.fold] sums them into fresh totals with this. *)

(** {2 Cost constants}

    Rough relative magnitudes; what matters for the reproduced figures is
    that they are identical across collector variants. *)

(* allocation fast path *)
val c_alloc : int

(* raw pointer store *)
val c_store : int

val c_load : int

(* one unit of pure application work *)
val c_compute : int

(* write barrier: dirty a card *)
val c_mark_card : int

(* write barrier or collector: shade an object *)
val c_mark_gray : int

(* write barrier: status/phase tests *)
val c_barrier_check : int

(* handshake poll *)
val c_cooperate : int

(* collector: post a handshake, per mutator *)
val c_handshake : int

(* trace: examine one slot *)
val c_scan_slot : int

(* trace: per-object overhead *)
val c_trace_obj : int

(* card scan: per dirty card *)
val c_card_visit : int

(* card scan: per object examined *)
val c_card_obj : int

(* sweep: per block *)
val c_sweep_block : int

(* sweep: reclaim one object *)
val c_free : int

(* root marking, per root *)
val c_root : int

val c_card_miss : int
(** Extra mutator cost when a card-table store misses the {!Card_cache} —
    the locality effect behind the card-size tradeoff of Section 8.5.3. *)

(* remembered-set barrier: dedup-flag test / buffer append *)
val c_remset_test : int
val c_remset_append : int
