(** Chrome/Perfetto trace-event export of a run's event recorder, on
    either substrate.

    Converts the {!Otfgc.Flight_recorder} rings into the JSON
    trace-event format that [chrome://tracing] and [ui.perfetto.dev]
    load directly: one track per ring — the collector (cycle and phase
    slices, with instants for the colour toggle, promotions and heap
    growth), the handshakes, each GC helper, each mutator (handshake-ack
    instants, allocation-stall slices, sampled polls, lock waits).
    Simulator timestamps are elapsed cost units, written as
    microseconds; domains timestamps are wall-clock, rebased to the
    first event and floored to microseconds.

    The trace and the [gcsim run --trace] timeline name events the same
    way.  {!validate} checks the structural invariants (well-formed
    records, non-negative durations, properly nested slices per
    track). *)

val of_flight :
  ?workload:string -> Otfgc.Flight_recorder.t -> Otfgc_support.Json.t
(** Build the trace document ([{"traceEvents": [...]}]); the process is
    labelled with [workload] and the substrate.  Drain only after the
    run has quiesced. *)

val name_of : Otfgc.Flight_recorder.event -> string
(** The event's slice or instant name, e.g. ["handshake sync1"]. *)

val pp_timeline : Format.formatter -> Otfgc.Flight_recorder.t -> unit
(** Every recorded event but the sampled polls, one line each in start
    order: timestamp, track, name, duration of a span, and the trace's
    [args]. *)

val validate : Otfgc_support.Json.t -> (unit, string) result
(** Structural check used by tests and [gcsim validate-trace]: the
    document has a [traceEvents] array; every event carries [name], [ph],
    [pid] and [tid]; duration events ([ph = "X"]) carry integer [ts] and
    [dur >= 0]; instants carry [ts]; slices on one track nest without
    partial overlap; and metadata names a ["collector"] thread. *)
