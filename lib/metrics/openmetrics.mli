(** Hand-rolled OpenMetrics/Prometheus text exposition of a metrics
    snapshot, plus a structural validator in the style of
    [Trace_export]'s — no external dependencies, deterministic output.

    Every snapshot counter becomes a [counter] family
    [otfgc_<name>_total], every gauge a [gauge] family [otfgc_<name>],
    in the fixed order of {!Otfgc.Metrics_snapshot.counters} /
    {!Otfgc.Metrics_snapshot.gauges}; run identity (workload, mode, ...) and
    the collector's current phase travel as [info] families with
    escaped label values.  The document ends with [# EOF] as the
    OpenMetrics framing requires.  A scrape-style consumer can read the
    file in place; the observer rewrites it whole at each snapshot, so
    the last write holds the run's cumulative totals. *)

val render :
  ?labels:(string * string) list -> Otfgc.Metrics_snapshot.t -> string
(** The full exposition for one snapshot.  [labels] become the
    [otfgc_run_info] label set (order preserved, values escaped);
    label names must match [[a-zA-Z_][a-zA-Z0-9_]*] — others raise
    [Invalid_argument]. *)

val escape_label_value : string -> string
(** OpenMetrics label-value escaping: backslash, double-quote and
    newline. *)

val validate : string -> (unit, string) result
(** Structural acceptance check (used by tests and
    [gcsim validate metrics]): the document is non-empty; every line is
    a [# HELP]/[# TYPE] comment or a sample; the final line is [# EOF]
    and nothing follows it; every family is declared by [# TYPE] with a
    known type (counter, gauge, info) exactly once and before its
    samples; sample names extend their family name correctly ([_total]
    for counters, [_info] for info); metric names are well-formed;
    label blocks balance with quoted, correctly escaped values; and
    every sample value parses as a finite number. *)
