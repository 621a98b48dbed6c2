(** The one sample row: a point-in-time snapshot of the runtime's
    observability state — telemetry counters, the work ledger, cycle
    aggregates, cheap heap gauges, the latency histograms and, on
    simulator rows, the heap census.  One record backs every output: the
    rows of the {!Sampler} store (the observer's JSONL and OpenMetrics
    sinks on domains, [gcsim census] and [gcsim report] on the
    simulator), and [gcsim stats], [run --telemetry] and [compare]
    (text, JSON, CSV) after a run.

    {!Observatory.take} reads the counters and gauges: only what cannot
    tear — atomics ([Gc_stats] live aggregates, [bytes_since_gc]), plain
    [int] fields and int arrays (the ledgers, histogram buckets), the
    card table's word scan and the freelist's occupancy counters.  It
    never walks heap blocks and never takes a lock, so a dedicated
    observer domain can call it at any wall-clock cadence without
    perturbing mutators or the collector.  The {!census} part is the
    block walk, taken only on the simulator ({!Observatory.maybe_sample}),
    where nothing runs beside it.

    The counters are the whole-program totals, the fold over every
    actor's ledger ([State.totals]).  Under domains each racy read is
    bounded-stale and per-location coherent, so counters are monotone
    across snapshots up to the staleness bound; at quiescence — after
    every mutator has retired — a snapshot is exact, so one taken after
    the run equals the observer's final one. *)

type hist = {
  count : int;
  total : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
}
(** Summary of one {!Otfgc_support.Histogram}. *)

type tally = { objects : int; bytes : int }

type census = {
  blue : tally;  (** free blocks (counted as [objects]) *)
  c0 : tally;
  c1 : tally;
  gray : tally;
  black : tally;
      (** the five colours partition the heap: their bytes sum to
          [heap_capacity] *)
  young : tally;
  old : tally;
      (** the generations partition the allocated blocks: their bytes
          sum to [heap_allocated_bytes] *)
  remset_entries : int;
  floating : tally;  (** the reachability oracle's floating garbage *)
}
(** What one walk of the heap's blocks finds, beside the snapshot's
    counters. *)

type t = {
  seq : int;  (** row index in the {!Sampler} store, 0-based *)
  at_ms : float;
      (** wall-clock ms since the observer started; [0.] on the
          simulator, whose clock is the work ledger:
          [mutator_work + collector_work + stall_work] is
          {!Cost.elapsed_multi} *)
  (* telemetry counters *)
  barrier_updates : int;
  yellow_fires : int;
  handshake_acks : int;
  stalls : int;
  card_marks : int;
  remset_records : int;
  lock_waits : int;  (** contended size-class allocation lock acquisitions *)
  lock_waits_by_class : (int * int) list;
      (** nonzero per-size-class breakdown of [lock_waits], ascending
          class *)
  events_logged : int;  (** event-recorder occupancy, over all rings *)
  events_dropped : int;  (** events the recorder's rings overwrote *)
  (* work ledger *)
  mutator_work : int;
  collector_work : int;
  stall_work : int;
  phase_work : (string * int) list;
      (** per collector phase, {!Cost.phases} order, keyed by
          {!metric_name_of_phase} *)
  category_work : (string * int) list;
      (** per mutator work class, {!Cost.categories} order *)
  (* cycle aggregates: Gc_stats live atomics, over completed cycles *)
  cycles_partial : int;
  cycles_full : int;
  cycles_non_gen : int;
  gc_bytes_freed : int;
  gc_objects_freed : int;
  promotions : int;
  dirty_card_finds : int;  (** dirty cards found by ClearCards *)
  steals : int;  (** successful gray-deque steals (parallel trace) *)
  steal_failures : int;  (** CAS-lost / empty-victim steal attempts *)
  trace_workers : int;  (** width of the collection crew (1 = serial) *)
  (* gauges: current values, not monotone *)
  phase : string;  (** collector's current [Cost] phase *)
  heap_capacity : int;
  heap_allocated_bytes : int;
  total_alloc_bytes : int;  (** cumulative allocation — monotone *)
  total_alloc_objects : int;
  young_bytes : int;
      (** [bytes_since_gc]: allocation since the last cycle — the young
          generation of this logical-generation collector, and the gauge
          its trigger watches *)
  dirty_cards : int;
  gray_depth : int;
  freelist_entries : int;
  freelist_stale : int;
  active_mutators : int;
  (* latency histograms (empty while the instruments are disabled) *)
  time_unit : string;
      (** unit of every latency histogram: ["units"] (simulated cost
          units) on the simulator, ["us"] (wall-clock microseconds) on
          the domains substrate *)
  handshake_latency : (string * hist) list;  (** per posted status *)
  stall_latency : hist;
  cycle_progress : hist;
  slo_handshake : hist;
      (** all statuses' handshake latencies merged — the SLO view; its
          [p99] is the [p99_handshake] gauge *)
  census : census option;  (** simulator rows only *)
}

val hist_of : Otfgc_support.Histogram.t -> hist
(** Summary of one histogram, as the latency fields hold it. *)

val metric_name_of_phase : Cost.phase -> string
(** The phase's {!Cost.phase_name} with dashes mapped to underscores — a
    valid metric-name fragment ([card-scan] → [card_scan]), shared with
    the trajectory's [phase_*] metrics. *)

val counters : t -> (string * int) list
(** Every cumulative (monotone) field, including the per-phase work
    cells, as [(name, value)] in a fixed, deterministic order — the
    OpenMetrics counter families. *)

val gauges : t -> (string * int) list
(** Every point-in-time field, fixed order — the OpenMetrics gauge
    families. *)

val to_json : ?run:(string * Otfgc_support.Json.t) list -> t ->
  Otfgc_support.Json.t
(** One object: [run] (the run's identity, e.g. workload and mode;
    default none) first, then [seq], [at_ms], [phase], {!counters},
    {!gauges}, the remaining fields and the [census] object when there
    is one — one JSONL line of the observer or of [gcsim census]. *)

val csv_of_json : Otfgc_support.Json.t -> string
(** A [metric,value] header, then one line per leaf of the document:
    nested keys joined by ['.'], list items by index, strings raw,
    numbers as in the JSON. *)

val print : t -> unit
(** The text summary: work attribution (percent of each ledger), event
    counters, latency histograms, and the SLO view (merged handshake
    latency and stall duration). *)
