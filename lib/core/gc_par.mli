(** The collection crew: every card scan, trace and sweep runs on it.

    Worker 0 is the collector process itself.  The simulator, and a
    domains run without [--gc-workers] > 1, use the width-1 crew
    {!create} builds, in which worker 0 runs each phase alone.
    {!configure} widens the crew on the domains substrate: helpers
    1..n-1 park in [Collector.gc_worker_loop] and are released into
    each phase by an epoch increment.

    See DESIGN.md §11 for the deque protocol, the termination-detection
    argument, and the lock-ordering discipline. *)

type phase = Idle | Cards | Trace | Sweep

type worker = {
  wid : int;
  ledger : Ledger.t;
      (** worker 0: the shared ledger ([State.ledger]); helpers: their
          own, registered in [State] and read through its fold *)
  mutable ring : Flight_recorder.ring option;
      (** flight-recorder track (armed recorder only; see
          {!attach_rings}) *)
  scratch : int array ref;  (** per-worker card-walk scratch buffer *)
  mutable dirty_cards : int;
  mutable intergen_scanned : int;
  mutable card_scan_bytes : int;
  mutable objects_traced : int;
  mutable promotions : int;
  mutable objects_freed : int;
  mutable bytes_freed : int;
  mutable steals : int;
  mutable steal_failures : int;
  mutable pace : int;
      (** worker 0 only: work units charged since the collector process
          last yielded (its pacing counter, see [State.collector_speed]).
          Kept here, in a record only the collector writes, rather than
          on the shared [State.t] that mutators read on every
          operation. *)
}

type t = {
  mutable n_workers : int;
  mutable workers : worker array;
  epoch : int Atomic.t;  (** phase-release counter helpers poll *)
  mutable phase : phase;  (** valid once the epoch store publishes it *)
  done_count : int Atomic.t;  (** helpers finished with the open phase *)
  idle : int Atomic.t;  (** trace: workers currently out of work *)
  activity : int Atomic.t;  (** trace: work-taken stamp *)
  term : bool Atomic.t;  (** trace: termination declared *)
  mutable sweep_bounds : int array;  (** n+1 block-aligned region bounds *)
}

val create : Ledger.t -> t
(** Width-1 crew: worker 0 alone, charging the given (shared) ledger. *)

val configure : t -> n:int -> layout:Otfgc_heap.Layout.tables -> unit
(** Widen to an [n]-worker crew (domains substrate only).  Worker 0 is
    kept; helpers get ledgers of their own, whose page sets span
    [layout]; the caller registers them. *)

val drain_partials : t -> Gc_stats.cycle -> unit
(** Fold every worker's per-phase partial counters into the cycle
    record and zero them.  Orchestrator only, at a phase barrier. *)

val attach_rings : t -> Flight_recorder.t -> unit
(** Give each helper its flight-recorder track (worker 0 records on the
    collector ring).  Call once the recorder is armed, and again after
    {!configure} widens an armed crew. *)

val open_phase : t -> phase -> unit
(** Publish a phase and release the helpers into it (epoch bump).
    Resets the termination protocol when the phase is [Trace]. *)

val helpers_done : t -> bool
(** All helpers have incremented [done_count] for the open phase. *)

val try_terminate : t -> queues_empty:(unit -> bool) -> bool
(** Trace-termination check; call only while registered idle.  True
    once termination is declared (possibly by this call). *)

val leave_idle : t -> unit
(** Leave the idle set to look for work: stamps [activity] {e before}
    decrementing [idle], the ordering the check relies on. *)
