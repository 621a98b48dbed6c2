(** The observer domain: live export of {!Otfgc.Metrics_snapshot}s at a
    wall-clock cadence.

    On the domains substrate the observer is one extra domain that
    wakes every [every_ms] milliseconds, takes a lock-free snapshot
    (see {!Otfgc.Metrics_snapshot} for the safety argument), appends it
    to the runtime's row store ({!Otfgc.Runtime.sampler}, of which it is
    then the only writer) and pushes it to up to three sinks:

    - a JSONL file ([jsonl_path]), one snapshot object appended per
      tick — the trajectory of the run;
    - an OpenMetrics text file ([om_path]), rewritten whole at each
      tick in the node-exporter textfile-collector style, so a scraper
      always reads one complete, valid exposition whose counters are
      the run's cumulative totals so far;
    - an ANSI two-line terminal view ([live]): heap-occupancy ribbon,
      current collector phase, allocation rate, young-generation size,
      dirty cards, gray depth, completed cycles and the p99 handshake
      latency, refreshed in place per snapshot.

    {!stop} always takes one final snapshot after the observer domain
    has joined, so even a run shorter than one cadence period emits a
    single exact record.  Call {!stop} once the parallel run has
    reached quiescence, so the final snapshot equals the post-run
    [Gc_stats]/[Telemetry] totals. *)

type config = {
  every_ms : float;  (** snapshot cadence; must be positive *)
  om_path : string option;  (** OpenMetrics sink, rewritten per tick *)
  jsonl_path : string option;  (** JSONL sink, appended per tick *)
  live : bool;  (** ANSI terminal view on stdout *)
  labels : (string * string) list;
      (** run-identity labels for [otfgc_run_info] *)
}

type t

val create : config -> t
(** A fresh, unlaunched observer.  Raises [Invalid_argument] when
    [every_ms] is not positive. *)

val launch : t -> Otfgc.Runtime.t -> unit
(** Open the sinks (truncating any previous contents) and spawn the
    observer domain against the runtime's state.  Raises
    [Invalid_argument] if the observer was already launched. *)

val stop : t -> unit
(** Signal the observer domain, join it, take the final snapshot,
    write it to every sink and close them.  Idempotent; a [stop]
    without a prior {!launch} is a no-op.  Every snapshot taken, the
    final one last, is then a row of {!Otfgc.Runtime.sampler}. *)
