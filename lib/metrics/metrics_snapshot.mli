(** The run summary: a lock-free point-in-time snapshot of the
    runtime's observability state — telemetry counters, the work
    ledger, cycle aggregates, cheap heap gauges and the latency
    histograms.  One record backs every output: the observer's JSONL
    and OpenMetrics sinks while a run is in flight, and [gcsim stats],
    [run --telemetry] and [compare] (text, JSON, CSV) after it.

    {!take} reads only what cannot tear — atomics ([Gc_stats] live
    aggregates, [bytes_since_gc]), plain [int] fields and int arrays
    (the ledgers, histogram buckets), the card table's word scan and
    the freelist's occupancy counters.  It never walks heap blocks
    (racy block walks are unsafe under domains — see [Observatory])
    and never takes a lock, so a dedicated observer domain can call it
    at any wall-clock cadence without perturbing mutators or the
    collector.

    {!take} sums the shared ledgers plus every registered mutator's own
    ledger (domains substrate).  Under domains each racy read is
    bounded-stale and per-location coherent, so counters are monotone
    across snapshots up to the staleness bound; at quiescence — after
    every mutator has retired — a snapshot is exact.  [Driver] folds
    each mutator's ledger into the shared one at the end of a run and
    resets it, so a snapshot taken after the run is exact too, and
    equal to the observer's final one. *)

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

type t = {
  seq : int;  (** snapshot index within the observed run, 0-based *)
  at_ms : float;  (** wall-clock ms since the observer started *)
  (* telemetry counters *)
  barrier_updates : int;
  yellow_fires : int;
  promotions : int;
  dirty_card_finds : int;
  handshake_acks : int;
  stalls : int;
  card_marks : int;
  remset_records : int;
  steals : int;  (** successful gray-deque steals (parallel trace) *)
  steal_failures : int;  (** CAS-lost / empty-victim steal attempts *)
  lock_waits : int;  (** contended size-class allocation lock acquisitions *)
  lock_waits_by_class : (int * int) list;
      (** nonzero per-size-class breakdown of [lock_waits], ascending
          class *)
  trace_workers : int;  (** widest collection crew observed (1 = serial) *)
  events_logged : int;  (** event-recorder occupancy, over all rings *)
  events_dropped : int;
  (* work ledger *)
  mutator_work : int;
  collector_work : int;
  stall_work : int;
  phase_work : (string * int) list;
      (** per collector phase, {!Otfgc.Cost.phases} order, keyed by
          {!metric_name_of_phase} *)
  category_work : (string * int) list;
      (** per mutator work class, {!Otfgc.Cost.categories} order *)
  (* cycle aggregates (Gc_stats live atomics) *)
  cycles_partial : int;
  cycles_full : int;
  cycles_non_gen : int;
  gc_bytes_freed : int;
  gc_objects_freed : int;
  gc_promotions : int;
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
  flight_drops : int;  (** [events_dropped], as the live sinks' gauge *)
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
}

val metric_name_of_phase : Otfgc.Cost.phase -> string
(** The phase's {!Otfgc.Cost.phase_name} with dashes mapped to
    underscores — a valid metric-name fragment ([card-scan] →
    [card_scan]), shared with {!Trajectory}'s [phase_*] metrics. *)

val take : ?seq:int -> ?at_ms:float -> Otfgc.State.t -> t
(** One racy snapshot of the state (see the module comment for the
    safety argument). *)

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
    {!gauges} and the remaining fields — one JSONL line of the
    observer. *)

val csv_of_json : Otfgc_support.Json.t -> string
(** A [metric,value] header, then one line per leaf of the document:
    nested keys joined by ['.'], list items by index, strings raw,
    numbers as in the JSON. *)

val print : t -> unit
(** The text summary: work attribution (percent of each ledger), event
    counters, latency histograms, and the SLO view (merged handshake
    latency and stall duration). *)
