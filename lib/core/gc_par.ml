(* Coordination state for the collection crew.

   Every collection runs on a crew.  Worker 0 is the collector process
   itself; under the simulator, and on the domains substrate unless
   [--gc-workers] asks for more, it is the only worker, and a phase is
   worker 0 running its share inline.  A wider crew (domains substrate
   only) adds helper domains 1..n-1 parked in
   Collector.gc_worker_loop.  The orchestrator opens a phase by
   publishing the phase name and then incrementing [epoch] (the release
   store the helpers' epoch poll acquires); helpers run their share and
   increment [done_count]; the orchestrator runs worker 0's share and
   waits for [done_count = n - 1] before folding every worker's partial
   counters into the cycle record.  Between phases helpers spin on
   [epoch], so all cycle-global decisions stay on the orchestrator.

   Trace termination (the only phase whose work set grows while it
   runs) uses the idle/activity protocol described in DESIGN.md §11:
   a worker that goes idle increments [idle]; before taking any work
   it increments [activity] and decrements [idle] — in that order, so
   the termination check below can never miss work created by a worker
   it already counted idle.  Termination is declared only by a worker
   that observes, in order: a stamp a1 of [activity]; [idle] = n;
   every queue empty; [activity] still a1.  If any worker took work
   after the stamp, the final read sees a changed stamp and the check
   retries.  At width 1 the first check after worker 0's final empty
   pop succeeds.  Mutator barrier pushes racing the declaration are
   tolerated: the late-shaded object rides through the sweep as
   floating gray and is normalised there. *)

type phase = Idle | Cards | Trace | Sweep

type worker = {
  wid : int;
  (* worker 0's is the shared [State.ledger]; a helper's is its own,
     read through [State.totals], so [cycle.work] and [pages_touched]
     are exact at every crew width *)
  ledger : Ledger.t;
  mutable ring : Flight_recorder.ring option;
  scratch : int array ref;
  (* per-phase partials, folded into the cycle record at the phase
     barrier and zeroed *)
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
}

type t = {
  mutable n_workers : int;
  mutable workers : worker array;
  epoch : int Atomic.t;
  mutable phase : phase;
  done_count : int Atomic.t;
  idle : int Atomic.t;
  activity : int Atomic.t;
  term : bool Atomic.t;
  mutable sweep_bounds : int array;
}

let make_worker ~wid ledger =
  {
    wid;
    ledger;
    ring = None;
    scratch = ref (Array.make 32 0);
    dirty_cards = 0;
    intergen_scanned = 0;
    card_scan_bytes = 0;
    objects_traced = 0;
    promotions = 0;
    objects_freed = 0;
    bytes_freed = 0;
    steals = 0;
    steal_failures = 0;
    pace = 0;
  }

(* A width-1 crew: worker 0 alone, charging the shared ledger. *)
let create ledger0 =
  {
    n_workers = 1;
    workers = [| make_worker ~wid:0 ledger0 |];
    epoch = Atomic.make 0;
    phase = Idle;
    done_count = Atomic.make 0;
    idle = Atomic.make 0;
    activity = Atomic.make 0;
    term = Atomic.make false;
    sweep_bounds = [||];
  }

(* Widen the crew to [n] workers.  Worker 0 is kept; helpers get
   ledgers of their own. *)
let configure t ~n ~layout =
  let w0 = t.workers.(0) in
  t.n_workers <- n;
  t.workers <-
    Array.init n (fun wid ->
        if wid = 0 then w0 else make_worker ~wid (Ledger.create layout))

let reset_partials w =
  w.dirty_cards <- 0;
  w.intergen_scanned <- 0;
  w.card_scan_bytes <- 0;
  w.objects_traced <- 0;
  w.promotions <- 0;
  w.objects_freed <- 0;
  w.bytes_freed <- 0;
  w.steals <- 0;
  w.steal_failures <- 0

(* Fold every worker's phase partials into the cycle record, then zero
   them for the next phase.  Orchestrator only, at a phase barrier. *)
let drain_partials t (cycle : Gc_stats.cycle) =
  Array.iter
    (fun w ->
      cycle.Gc_stats.dirty_cards <- cycle.Gc_stats.dirty_cards + w.dirty_cards;
      cycle.Gc_stats.intergen_scanned <-
        cycle.Gc_stats.intergen_scanned + w.intergen_scanned;
      cycle.Gc_stats.card_scan_bytes <-
        cycle.Gc_stats.card_scan_bytes + w.card_scan_bytes;
      cycle.Gc_stats.objects_traced <-
        cycle.Gc_stats.objects_traced + w.objects_traced;
      cycle.Gc_stats.promotions <- cycle.Gc_stats.promotions + w.promotions;
      cycle.Gc_stats.objects_freed <-
        cycle.Gc_stats.objects_freed + w.objects_freed;
      cycle.Gc_stats.bytes_freed <- cycle.Gc_stats.bytes_freed + w.bytes_freed;
      cycle.Gc_stats.steals <- cycle.Gc_stats.steals + w.steals;
      cycle.Gc_stats.steal_failures <-
        cycle.Gc_stats.steal_failures + w.steal_failures;
      reset_partials w)
    t.workers

(* Hand every helper its flight-recorder track.  Worker 0 records on the
   collector's own ring: its phase shares run inline inside the
   orchestrator's phase spans. *)
let attach_rings t fr =
  Array.iter
    (fun w ->
      if w.wid = 0 then w.ring <- Flight_recorder.collector_ring fr
      else
        w.ring <-
          Flight_recorder.new_ring fr
            ~track:(Printf.sprintf "gc-worker-%d" w.wid)
            ~tid:(Flight_recorder.worker_tid w.wid))
    t.workers

(* {2 Phase protocol — orchestrator side} *)

let open_phase t p =
  t.phase <- p;
  Atomic.set t.done_count 0;
  if p = Trace then begin
    Atomic.set t.idle 0;
    Atomic.set t.activity 0;
    Atomic.set t.term false
  end;
  (* release store: helpers acquire it in their epoch poll *)
  Atomic.incr t.epoch

let helpers_done t = Atomic.get t.done_count >= t.n_workers - 1

(* {2 Trace termination — any worker} *)

(* Call while holding no work, after registering idle (incr t.idle).
   Returns true when termination has been (or is now) declared. *)
let try_terminate t ~queues_empty =
  Atomic.get t.term
  ||
  let a1 = Atomic.get t.activity in
  if Atomic.get t.idle = t.n_workers && queues_empty ()
     && Atomic.get t.activity = a1
  then begin
    Atomic.set t.term true;
    true
  end
  else Atomic.get t.term

(* A worker leaves the idle set to take (or look for) work: the order —
   activity stamp first, then idle decrement — is what makes the
   termination check sound (see module header). *)
let leave_idle t =
  Atomic.incr t.activity;
  Atomic.decr t.idle
