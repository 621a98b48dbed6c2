(** Per-collection statistics, matching the quantities reported in the
    paper's Figures 10–15 and 22–23.

    The collector fills in a {!cycle} record as it runs; "out-of-band"
    measurements (e.g. the young-generation census at cycle start) are
    taken by the harness without charging collector work or page touches,
    exactly like the paper's instrumented JVM counters. *)

type kind = Partial | Full | Non_gen

val kind_name : kind -> string

val kind_index : kind -> int
(** Dense index ([Partial] 0, [Full] 1, [Non_gen] 2), used to int-encode
    kinds in the event ring. *)

val kind_of_index : int -> kind
(** Inverse of {!kind_index}; raises [Invalid_argument] outside [0..2]. *)

type totals = {
  bytes_freed : int;
  objects_freed : int;
  promotions : int;
  dirty_cards : int;
  steals : int;
  steal_failures : int;
}
(** Running sums of the like-named {!cycle} fields over completed
    cycles. *)

type cycle = {
  kind : kind;
  seq : int;  (** 0-based collection index within the run *)
  (* trace *)
  mutable objects_traced : int;
      (** objects blackened by the trace (Figure 11 "objects scanned") *)
  mutable intergen_scanned : int;
      (** old objects examined during the dirty-card scan (Figure 11
          "objects scanned for inter-gen pointers") *)
  mutable card_scan_bytes : int;
      (** bytes of old objects examined on dirty cards (Figure 23) *)
  mutable dirty_cards : int;   (** dirty cards found by ClearCards (Figure 22) *)
  mutable total_cards : int;
      (** "allocated cards": cards covered by the bytes allocated since the
          previous collection — Figure 22's denominator *)
  (* sweep *)
  mutable objects_freed : int;
  mutable bytes_freed : int;
  mutable promotions : int;
      (** objects promoted to the old generation this cycle: blackened by
          the trace under simple promotion, newly tenured by the sweep
          under aging/adaptive promotion *)
  (* census (out of band) *)
  mutable young_objects_at_start : int;
  mutable young_bytes_at_start : int;
  mutable live_objects_at_end : int;
  mutable live_bytes_at_end : int;
  (* cost & locality *)
  mutable work : int;          (** collector work units for this cycle (Figure 13) *)
  mutable pages_touched : int; (** Figure 15 *)
  mutable active_span : int;
      (** elapsed-work span of the cycle: how much total (mutator +
          collector) work the system performed while the cycle was in
          progress — the wall-clock-activity measure behind Figure 10's
          "percent time GC active" *)
  mutable floating_objects : int;
      (** allocated-but-unreachable objects the cycle's sweep left behind
          (floating garbage), measured out of band by the oracle right
          after the sweep — Section 5's "at most one cycle" claim made
          quantitative *)
  mutable floating_bytes : int;
  (* collection crew (1/0/0 at width 1, the simulator's crew, so sim
     figures are unchanged) *)
  mutable trace_workers : int;
      (** collector worker domains that ran this cycle's trace *)
  mutable steals : int;  (** successful gray-deque steals *)
  mutable steal_failures : int;
      (** steal attempts that found an empty deque or lost the race *)
}

type t

val create : unit -> t

val reset : t -> unit
(** Drop all recorded cycles (end-of-warmup measurement reset).  A cycle
    begun and not yet ended stays counted by {!n_begun_of}, so
    [n_begun_of k - n_completed_of k] (the cycles of kind [k] in flight)
    is the same after the reset as before. *)

val begin_cycle : t -> kind -> cycle
(** Allocate and register the record for a starting collection, and bump
    {!n_begun_of} for its kind. *)

val end_cycle : t -> cycle -> unit
(** Mark the cycle complete; only completed cycles count in aggregates. *)

val cycles : t -> cycle list
(** Completed cycles, oldest first. *)

val n_completed : t -> int
(** Number of completed cycles, as an atomic read — the form mutators on
    the real-domains substrate poll while waiting for a cycle they
    requested (the list in {!cycles} is only safe to read from the
    collector's own domain or at quiescence). *)

(** {2 Live aggregates}

    Published once per {!end_cycle} as atomics, so the metrics observer
    on another domain can read monotone, tear-free values mid-run
    without walking the cycle list.  They cover completed cycles only:
    a cycle still running adds nothing until it ends.  Each equals the
    corresponding fold over {!cycles} whenever the collector is between
    cycles (and always at quiescence). *)

val n_completed_of : t -> kind -> int
(** Completed cycles of one kind (atomic read). *)

val n_begun_of : t -> kind -> int
(** Cycles of one kind begun since the last {!reset}, plus any in flight
    at it (atomic read).  Cycles run one at a time, so once
    [n_completed_of k] exceeds a value [n_begun_of k] had at some
    instant, a cycle of kind [k] that began after that instant has
    completed — the allocation stall's out-of-memory test. *)

val totals : t -> totals
(** The collector's run totals, every field from the same cycle
    boundary (one atomic read of an immutable record that {!end_cycle}
    swaps and {!reset} zeroes).  The only home of these counts: no
    other ledger keeps a copy. *)

val count : t -> kind -> int

(** {2 Aggregates for the figure harness} *)

val mean : t -> kind -> (cycle -> float) -> float
(** Mean of a metric over completed cycles of a kind; [0.] if none. *)

val sum : t -> kind -> (cycle -> float) -> float

val has : t -> kind -> bool
