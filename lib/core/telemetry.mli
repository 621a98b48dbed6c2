(** Raw telemetry state threaded through the runtime — the recording half
    of the observability layer ({!Metrics_snapshot} is the
    summarising/exporting half).

    Two tiers, chosen so the default configuration costs nothing the cost
    model could see:

    - {b Counters} (barrier executions, card marks, remembered-set
      records, yellow-exception fires, handshake acks, stalls, size-class
      lock waits) are bare int increments and stay on unconditionally —
      like the CPU's own performance counters, they are free of
      allocation and of simulated cost.  They count what mutators do;
      what a collection cycle does (promotions, dirty cards, steals,
      bytes freed) lives only in its {!Gc_stats.cycle} record and the
      run totals {!Gc_stats.totals} sums from it.
    - {b Instruments} (handshake-latency, allocation-stall and per-cycle
      mutator-progress histograms) record only when {!set_enabled} has
      been called; the record path itself is allocation-free
      ({!Otfgc_support.Histogram}).

    Nothing here charges the {!Cost} ledger or yields to the scheduler, so
    enabling telemetry cannot change a run's schedule or its reported
    figures — the invariant the digest-identity tests pin down. *)

type t

val create : unit -> t

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Off by default; gates the histograms only (counters are always on). *)

val reset : t -> unit
(** Zero everything (end-of-warmup measurement reset). *)

val merge_into : src:t -> dst:t -> unit
(** Fold [src] into [dst] ([src] unchanged): counters add, histograms
    merge sample streams.  [Ledger.fold] sums the actors' telemetry
    into fresh totals with this. *)

(** {2 Counters} *)

val hit_barrier : t -> unit
(** one write-barrier execution *)

val hit_yellow : t -> unit
(** the Section 4 yellow-exception shaded an allocation-colored object *)

val hit_ack : t -> unit
(** a mutator adopted a posted status *)

val hit_stall : t -> unit
(** a mutator entered the allocation slow path *)

val hit_card_mark : t -> unit
(** barrier dirtied (or re-dirtied) a card *)

val hit_remset_record : t -> unit
(** remembered-set append (deduplicated) *)

val hit_lock_wait : t -> cls:int -> unit
(** a mutator refill found size-class [cls]'s pool lock held (clamped
    to {!n_lock_classes} slots) *)

val n_lock_classes : int
(** length of the per-size-class lock-wait table *)

val barrier_updates : t -> int
val yellow_fires : t -> int
val handshake_acks : t -> int
val stalls : t -> int
val card_marks : t -> int
val remset_records : t -> int

val lock_waits : t -> int array
(** per-size-class lock-wait counts (fresh copy, length
    {!n_lock_classes}) *)

val lock_waits_total : t -> int

(** {2 Instruments} (no-ops while disabled) *)

val handshake_posted : t -> at:int -> unit
(** The collector posted a handshake at elapsed time [at]. *)

val handshake_completed : t -> Status.t -> at:int -> unit
(** The last mutator acked: records [at - posted_at] into the per-status
    latency histogram. *)

val record_stall : t -> int -> unit
(** Work-unit span a mutator spent in the allocation slow path. *)

val record_progress : t -> int -> unit
(** Mutator work performed while one collection cycle was active — the
    pause-free-progress measure. *)

val handshake_latency : t -> Status.t -> Otfgc_support.Histogram.t
val stall_latency : t -> Otfgc_support.Histogram.t
val cycle_progress : t -> Otfgc_support.Histogram.t
