module Heap = Otfgc_heap.Heap
module Color = Otfgc_heap.Color
module Page_set = Otfgc_heap.Page_set
module Substrate = Otfgc_sched.Substrate

type gc_request = No_request | Want_partial | Want_full

type t = {
  heap : Heap.t;
  cfg : Gc_config.t;
  status_c : Status.t Atomic.t;
  (* Mutator registry: a growable array published through [n_mutators].
     Writers (under [reg_lock]) place the new element — growing into a
     fresh array if needed — and only then release-store the count, so a
     reader that loads the count first sees a fully initialised prefix.
     Replaces the former O(n²) list append. *)
  mutable mutator_slots : Mutator.t array;
  n_mutators : int Atomic.t;
  mutable globals : int list;
  (* The two color names stay plain: only the collector writes them, and
     every mutator read is bounded-stale by construction — the paper's
     protocol tolerates a create/shade using the pre-toggle color until
     the mutator acks the next handshake, and that ack's status_c read is
     the acquire that makes the toggle visible (DESIGN §10). *)
  mutable allocation_color : Color.t;
  mutable clear_color : Color.t;
  tracing : bool Atomic.t;
  sweeping : bool Atomic.t;
  collecting : bool Atomic.t;
  sweep_progress : int Atomic.t;
  gc_request : gc_request Atomic.t;
  bytes_since_gc : int Atomic.t;
  shutdown : bool Atomic.t;
  gray : Gray_queue.t;
  stats : Gc_stats.t;
  recorder : Flight_recorder.t;
  telemetry : Telemetry.t;
  mutable cur_cycle : Gc_stats.cycle option;
  pages : Page_set.t;
  cost : Cost.t;
  card_cache : Card_cache.t;
  remset_cache : Card_cache.t;
  mutable tenure_threshold : int;
  mutable fine_grained : bool;
  mutable collector_speed : int;
  sampler : Sampler.t;
  (* Real-domains substrate.  [parallel] is set once by the driver before
     any process starts; the locks are never touched in simulated mode. *)
  mutable parallel : bool;
  heap_lock : Mutex.t;
  reg_lock : Mutex.t;
  par : Gc_par.t;
  pool : Block_pool.t;
}

let create heap cfg =
  let pages = Page_set.create (Heap.layout heap) in
  let cost = Cost.create () in
  let telemetry = Telemetry.create () in
  {
    heap;
    cfg;
    status_c = Atomic.make Status.Async;
    mutator_slots = [||];
    n_mutators = Atomic.make 0;
    globals = [];
    allocation_color = Color.C0;
    clear_color = Color.C1;
    tracing = Atomic.make false;
    sweeping = Atomic.make false;
    collecting = Atomic.make false;
    sweep_progress = Atomic.make 0;
    gc_request = Atomic.make No_request;
    bytes_since_gc = Atomic.make 0;
    shutdown = Atomic.make false;
    gray = Gray_queue.create ();
    stats = Gc_stats.create ();
    telemetry;
    cur_cycle = None;
    pages;
    cost;
    card_cache = Card_cache.create ();
    remset_cache = Card_cache.create ();
    tenure_threshold = 1;
    fine_grained = true;
    collector_speed = 8;
    sampler = Sampler.create ();
    recorder = Flight_recorder.create ();
    parallel = false;
    heap_lock = Mutex.create ();
    reg_lock = Mutex.create ();
    par = Gc_par.create ~cost0:cost ~tel0:telemetry ~pages0:pages;
    pool = Block_pool.create ();
  }

let step t = if t.fine_grained then Substrate.yield ()

(* {2 Mutator registry} *)

let register_mutator t m =
  let n = Atomic.get t.n_mutators in
  if n = Array.length t.mutator_slots then begin
    let bigger = Array.make (Stdlib.max 4 (2 * n)) m in
    Array.blit t.mutator_slots 0 bigger 0 n;
    t.mutator_slots <- bigger
  end;
  t.mutator_slots.(n) <- m;
  Atomic.set t.n_mutators (n + 1)

let iter_mutators t f =
  (* count first (acquire), then the array: the writer's release of the
     count publishes both the element and any grown array *)
  let n = Atomic.get t.n_mutators in
  let arr = t.mutator_slots in
  for i = 0 to n - 1 do
    f arr.(i)
  done

let mutators t =
  let acc = ref [] in
  iter_mutators t (fun m -> acc := m :: !acc);
  List.rev !acc

let active_mutators t = List.filter Mutator.active (mutators t)

let for_all_active_mutators t p =
  let n = Atomic.get t.n_mutators in
  let arr = t.mutator_slots in
  let ok = ref true in
  for i = 0 to n - 1 do
    let m = arr.(i) in
    if Mutator.active m && not (p m) then ok := false
  done;
  !ok

let count_active_mutators t =
  let n = Atomic.get t.n_mutators in
  let arr = t.mutator_slots in
  let c = ref 0 in
  for i = 0 to n - 1 do
    if Mutator.active arr.(i) then incr c
  done;
  !c

(* {2 Parallel-mode helpers} *)

let lock_heap t = if t.parallel then Mutex.lock t.heap_lock
let unlock_heap t = if t.parallel then Mutex.unlock t.heap_lock

(* The ledger a mutator-context charge goes to: the mutator's own under
   real domains (merged at end of run), the shared one under the
   simulator — where this is exactly the old behavior. *)
let mcost t m =
  if t.parallel then
    match Mutator.own_cost m with Some c -> c | None -> t.cost
  else t.cost

let mtelemetry t m =
  if t.parallel then
    match Mutator.own_telemetry m with Some tel -> tel | None -> t.telemetry
  else t.telemetry

(* Timestamp for latency instruments: simulated cost units under the
   simulator, real microseconds under domains (Monotonic_clock). *)
let now_units t =
  if t.parallel then
    Otfgc_support.Monotonic_clock.ns_to_us
      (Otfgc_support.Monotonic_clock.now_ns ())
  else Cost.elapsed_multi t.cost

let young_color _t c = not (Color.equal c Color.Black)
