(** One actor's accounting: the work it charged ({!Cost}), its event
    counters and latency instruments ({!Telemetry}), and the pages it
    touched in the current cycle ({!Otfgc_heap.Page_set}).

    Every actor owns one: each crew worker, and on the domains substrate
    each mutator, so no two domains ever increment the same counter.  On
    the simulator every mutator charges worker 0's ledger, whose
    {!Cost.elapsed_multi} is the simulated clock.  The ledgers are
    registered in [State], and whole-program totals are read only
    through {!fold} over that registry ([State.totals]).  Nobody moves
    one actor's counts into another's. *)

type t = {
  cost : Cost.t;
  tel : Telemetry.t;
  pages : Otfgc_heap.Page_set.t;
      (** pages touched this cycle; crew workers only, cleared by the
          orchestrator when a cycle opens *)
}

val create : Otfgc_heap.Layout.tables -> t
(** A zeroed ledger whose page set spans [tables]. *)

val reset : t -> unit
(** Zero the ledger (the end-of-warm-up measurement reset). *)

val fold : Otfgc_heap.Layout.tables -> t list -> t
(** Whole-program totals: costs and counters add, histograms merge,
    page sets unite.  A one-ledger registry (the simulator, or a domains
    run before any mutator registers) is its own total and is returned
    as is, so readers must not keep or write the result.  Reads of
    ledgers other domains are writing are racy but bounded-stale (plain
    ints and histogram buckets: never torn or out of bounds). *)
