module Heap = Otfgc_heap.Heap
module Sched = Otfgc_sched.Sched
module Substrate = Otfgc_sched.Substrate
open State

exception Out_of_memory

type t = { st : State.t; mutable next_mutator_id : int }

let create ?(heap_config = Heap.default_config) ?(gc_config = Gc_config.default)
    () =
  Gc_config.validate gc_config;
  let heap = Heap.create heap_config in
  { st = State.create heap gc_config; next_mutator_id = 0 }

let state t = t.st
let heap t = t.st.heap
let stats t = t.st.stats
let cost t = t.st.cost
let events t = t.st.recorder
let telemetry t = t.st.telemetry
let sampler t = t.st.sampler

let set_fine_grained t v = t.st.fine_grained <- v
let set_parallel t v = t.st.parallel <- v; Gray_queue.set_locked t.st.gray v

(* Widen the collection crew to [n] workers (domains substrate only;
   call before any process starts).  Every state starts with the width-1
   crew, in which the collector process is worker 0 alone, so [n <= 1]
   changes nothing. *)
let set_gc_workers t n =
  if n > 1 then begin
    Gc_par.configure t.st.par ~n ~layout:(Heap.layout t.st.heap);
    Gray_queue.set_workers t.st.gray n;
    (* a recorder armed before the widening: give the new workers tracks *)
    if Flight_recorder.armed t.st.recorder then
      Gc_par.attach_rings t.st.par t.st.recorder
  end

let recorder t = t.st.recorder

(* Arm the event recorder (call before any process starts — instrument
   hooks run right after [set_parallel] and [set_gc_workers] in the
   driver, which is the right moment).  Workers configured before or
   after arming both end up with tracks; mutators get theirs at
   registration. *)
let arm_recorder t =
  let st = t.st in
  Flight_recorder.arm st.recorder
    ?units:(if st.parallel then None else Some st.cost);
  Gc_par.attach_rings st.par st.recorder

let attach_ring st m =
  Mutator.set_ring m
    (Flight_recorder.new_ring st.recorder ~track:(Mutator.name m)
       ~tid:(Flight_recorder.mutator_tid (Mutator.id m)))

let gc_workers t = t.st.par.Gc_par.n_workers
let gc_worker_loop t wid = Collector.gc_worker_loop t.st wid

(* Registration must not race a cycle start: the handshake set has to be
   stable from the moment [collecting] rises (a mutator registering
   mid-handshake would either miss the posted status or be waited on
   without ever having seen it).  The collector raises [collecting] under
   [reg_lock] (Collector.run_cycle), so holding the lock and seeing
   [collecting = false] guarantees no cycle can begin until we release —
   the fresh mutator is published (status = Async = status_c) before any
   handshake is posted.  Under the simulator the wait alone suffices, as
   it always has: nothing runs between our check and the registration. *)
let new_mutator t ~name ?(n_regs = 16) () =
  let st = t.st in
  if st.parallel then begin
    let made = ref None in
    while !made = None do
      Substrate.wait_until (fun () -> not (Atomic.get st.collecting));
      Mutex.lock st.reg_lock;
      if Atomic.get st.collecting then Mutex.unlock st.reg_lock
      else begin
        let m = Mutator.create ~id:t.next_mutator_id ~name ~n_regs in
        t.next_mutator_id <- t.next_mutator_id + 1;
        let c = Cost.create () in
        let tel = Telemetry.create () in
        Telemetry.set_enabled tel (Telemetry.enabled st.telemetry);
        Mutator.set_own_ledgers m c tel;
        attach_ring st m;
        Mutator.set_status m (Atomic.get st.status_c);
        State.register_mutator st m;
        Mutex.unlock st.reg_lock;
        made := Some m
      end
    done;
    Option.get !made
  end
  else begin
    if Atomic.get st.collecting then
      Sched.wait_until (fun () -> not (Atomic.get st.collecting));
    let m = Mutator.create ~id:t.next_mutator_id ~name ~n_regs in
    t.next_mutator_id <- t.next_mutator_id + 1;
    (* Idle collector means status_c = Async, matching the fresh mutator. *)
    Mutator.set_status m (Atomic.get st.status_c);
    attach_ring st m;
    State.register_mutator st m;
    m
  end

let retire_mutator t m =
  let st = t.st in
  if st.parallel then begin
    (* Return the allocation cache's reserved blocks and flush the batched
       counters before the mutator stops participating — after [retire]
       nobody would ever drain them. *)
    let cache = Mutator.cache m in
    State.lock_heap st;
    Alloc_cache.drain cache (fun addr -> Heap.release_reserved st.heap addr);
    let bytes, objects = Alloc_cache.take_pending cache in
    if objects > 0 || bytes > 0 then
      Heap.add_alloc_stats st.heap ~bytes ~objects;
    State.unlock_heap st
  end;
  Mutator.retire m

let spawn_collector t sched =
  Sched.spawn sched ~daemon:true ~name:"collector" (fun () ->
      Collector.collector_loop t.st)

let collector_loop t = Collector.collector_loop t.st
let shutdown t = Atomic.set t.st.shutdown true

let cooperate t m = Collector.cooperate t.st m

let add_global t addr = t.st.globals <- addr :: t.st.globals

let request_collection t ~full =
  let st = t.st in
  if not (Atomic.get st.collecting) then
    ignore
      (Atomic.compare_and_set st.gc_request No_request
         (if full then Want_full else Want_partial)
        : bool)

(* Busy-wait helper: under the simulator, cooperate-then-yield exactly as
   the historical code did (schedules untouched); under domains, a
   spin-then-sleep wait that still polls the handshake each iteration. *)
let wait_while st m cond =
  if st.parallel then
    Substrate.wait_until (fun () ->
        Collector.cooperate st m;
        not (cond ()))
  else
    while cond () do
      Collector.cooperate st m;
      Sched.yield ()
    done

let collect_and_wait t m ~full =
  let st = t.st in
  (* Wait out any cycle already in progress so ours is a fresh one. *)
  wait_while st m (fun () ->
      Atomic.get st.collecting || Atomic.get st.gc_request <> No_request);
  let n0 = Gc_stats.n_completed st.stats in
  Atomic.set st.gc_request (if full then Want_full else Want_partial);
  wait_while st m (fun () ->
      Gc_stats.n_completed st.stats = n0 || Atomic.get st.collecting);
  List.nth (Gc_stats.cycles st.stats) n0

(* Section 3.3 triggering: a partial collection once [young_bytes] have
   been allocated since the last collection; a full collection when the
   heap is "almost full" — the same full trigger with and without
   generations (Section 8).  The CAS posts the request only if none is
   pending, which is exactly the old check-then-set under the simulator
   and the required atomicity under domains. *)
let maybe_trigger t =
  let st = t.st in
  if not (Atomic.get st.collecting) then begin
    let cap = Heap.capacity st.heap in
    let almost_full =
      float_of_int (Heap.allocated_bytes st.heap)
      >= st.cfg.Gc_config.full_trigger_fraction *. float_of_int cap
      (* while the heap can still grow cheaply, growing is preferred over
         collecting only when allocation actually fails; the fraction
         applies to current capacity, as in the prototype JVM *)
    in
    if almost_full then
      ignore (Atomic.compare_and_set st.gc_request No_request Want_full : bool)
    else if
      Gc_config.is_generational st.cfg.Gc_config.mode
      && Atomic.get st.bytes_since_gc >= st.cfg.Gc_config.young_bytes
    then
      ignore
        (Atomic.compare_and_set st.gc_request No_request Want_partial : bool)
  end

let try_alloc t ~size ~n_slots =
  let st = t.st in
  State.lock_heap st;
  let color = Collector.allocation_color st in
  let r = Heap.alloc st.heap ~size ~n_slots ~color in
  State.unlock_heap st;
  r

let note_allocated st addr =
  ignore (Atomic.fetch_and_add st.bytes_since_gc (Heap.size st.heap addr) : int)

(* Only a full (or non-generational) collection can reclaim tenured
   garbage; partials completing while a stall waits do not count as "a
   collection ran and it still does not fit".  Atomic reads, O(1) and
   safe while the collector domain is ending a cycle. *)
let fulls_done st =
  Gc_stats.n_completed_of st.stats Gc_stats.Full
  + Gc_stats.n_completed_of st.stats Gc_stats.Non_gen

let fulls_begun st =
  Gc_stats.n_begun_of st.stats Gc_stats.Full
  + Gc_stats.n_begun_of st.stats Gc_stats.Non_gen

(* The simulator's allocation path: one free-list pop per object, inline
   stall loop.  Byte-identical to the historical behavior. *)
let alloc_sim t m ~size ~n_slots =
  let st = t.st in
  Collector.cooperate st m;
  Sched.yield ();
  Cost.mutator st.cost Cost.c_alloc;
  Observatory.maybe_sample st;
  match try_alloc t ~size ~n_slots with
  | Some addr ->
      note_allocated st addr;
      maybe_trigger t;
      addr
  | None ->
      (* Slow path — collect before growing, as the prototype JVM does:
         request a full collection if none is pending, stall (cooperating,
         or handshakes would never complete) until it finishes, retry; only
         when a whole collection has run and allocation still fails does
         the heap grow towards its maximum, and only when that too is
         exhausted is the program out of memory. *)
      let result = ref Heap.nil in
      Telemetry.hit_stall st.telemetry;
      let stall_from = Cost.elapsed_multi st.cost in
      let baseline = ref (fulls_done st) in
      while !result = Heap.nil do
        match try_alloc t ~size ~n_slots with
        | Some addr -> result := addr
        | None ->
            (if
               (not (Atomic.get st.collecting))
               && Atomic.get st.gc_request = No_request
             then
               if fulls_done st = !baseline then
                 Atomic.set st.gc_request Want_full
               else if
                 Heap.grow st.heap
                   ~want_bytes:
                     (Stdlib.max size
                        (Stdlib.max 65536 (Heap.capacity st.heap / 2)))
               then baseline := fulls_done st
               else raise Out_of_memory);
            Collector.cooperate st m;
            Cost.stall st.cost Cost.c_cooperate;
            Observatory.maybe_sample st;
            Sched.yield ()
      done;
      let stall_to = Cost.elapsed_multi st.cost in
      Telemetry.record_stall st.telemetry (stall_to - stall_from);
      (match Mutator.ring m with
      | Some r ->
          Flight_recorder.span r Flight_recorder.Stall ~a:(Mutator.id m)
            ~t0:stall_from ~t1:stall_to
      | None -> ());
      note_allocated st !result;
      maybe_trigger t;
      !result

(* Blocks a mutator pulls into its own cache per refill: the TLAB batch
   size.  Small enough that reserved memory stays a few KB per mutator,
   large enough that the refill drops out of the hot path. *)
let refill_target = 16

(* Blocks a restock reserves from the heap beyond the refiller's own
   batch, left stocked in the class pool for other mutators: each heap
   lock acquisition feeds several pool-only refills in that class. *)
let pool_extra = 32

(* Hand every pooled block back to the free list.  Called when an
   allocation stalls (a hoarded block might be the one that fits) and
   at the run finale (pooled blocks are kind-Allocated and would count
   against the heap-empty-at-quiescence invariant).  Takes each class
   lock, then the heap lock inside it — the legal order. *)
let drain_pools t =
  let st = t.st in
  Block_pool.drain st.pool (fun addr ->
      State.lock_heap st;
      Heap.release_reserved st.heap addr;
      State.unlock_heap st)

(* The domains allocation path: domain-local cache first, per-size-class
   pool second (class lock only — refills in different classes never
   contend), heap-locked restock third, collect-then-grow stall loop
   last (same policy as the simulator's, with real waits). *)
let alloc_domains t m ~size ~n_slots =
  let st = t.st in
  let heap = st.heap in
  let cache = Mutator.cache m in
  let cost = State.mcost st m in
  Collector.cooperate st m;
  Substrate.yield ();
  Cost.mutator cost Cost.c_alloc;
  let cacheable = Alloc_cache.cacheable ~size in
  (* Lock-free: the block is already reserved (kind Allocated, Blue), so
     issuing touches only its own granule entries; the allocation color is
     read after cooperate, so its staleness is bounded by the handshake
     window the protocol already tolerates. *)
  let issue_from addr =
    let color = Collector.allocation_color st in
    let real = Heap.issue heap addr ~n_slots ~color in
    Alloc_cache.note_issued cache ~bytes:real;
    ignore (Atomic.fetch_and_add st.bytes_since_gc real : int);
    maybe_trigger t;
    addr
  in
  let refill () =
    let cls = Block_pool.class_of ~size in
    (match Mutator.ring m with
    | None ->
        if Block_pool.lock st.pool ~cls then
          Telemetry.hit_lock_wait (State.mtelemetry st m) ~cls
    | Some r ->
        (* timed path: the clock is read only when the try_lock failed,
           so the uncontended refill stays as cheap as the untimed one *)
        let waited = Block_pool.lock_ns st.pool ~cls in
        if waited > 0 then begin
          Telemetry.hit_lock_wait (State.mtelemetry st m) ~cls;
          let t1 = Flight_recorder.ring_now r in
          Flight_recorder.span r Flight_recorder.Lock_wait ~a:cls
            ~t0:(t1 - waited) ~t1
        end);
    let got = ref 0 in
    (* stocked blocks first: the class lock is the only lock taken *)
    let rec from_pool () =
      if !got < refill_target then
        match Block_pool.pop st.pool ~cls with
        | Some a ->
            Alloc_cache.put cache ~size a;
            incr got;
            from_pool ()
        | None -> ()
    in
    from_pool ();
    if !got < refill_target then begin
      (* dry pool: restock from the free list under the heap lock
         (class -> heap, the legal order) and flush the batched
         allocation counters while holding it *)
      State.lock_heap st;
      let bytes, objects = Alloc_cache.take_pending cache in
      if objects > 0 || bytes > 0 then
        Heap.add_alloc_stats heap ~bytes ~objects;
      (try
         while !got < refill_target do
           match Heap.reserve heap ~size with
           | Some a ->
               Alloc_cache.put cache ~size a;
               incr got
           | None -> raise Exit
         done;
         let stocked = ref 0 in
         while !stocked < pool_extra do
           match Heap.reserve heap ~size with
           | Some a ->
               Block_pool.push st.pool ~cls a;
               incr stocked
           | None -> raise Exit
         done
       with Exit -> ());
      State.unlock_heap st
    end;
    Block_pool.unlock st.pool ~cls;
    !got > 0
  in
  let attempt () =
    if cacheable then
      match Alloc_cache.get cache ~size with
      | Some addr -> Some (issue_from addr)
      | None ->
          if refill () then
            match Alloc_cache.get cache ~size with
            | Some addr -> Some (issue_from addr)
            | None -> None
          else None
    else
      match try_alloc t ~size ~n_slots with
      | Some addr ->
          note_allocated st addr;
          maybe_trigger t;
          Some addr
      | None -> None
  in
  match attempt () with
  | Some addr -> addr
  | None ->
      let tel = State.mtelemetry st m in
      Telemetry.hit_stall tel;
      (* blocks hoarded in other classes' pools may be exactly the
         memory this request needs — return them all before stalling *)
      drain_pools t;
      let stall_ns0 =
        match Mutator.ring m with
        | Some r -> Flight_recorder.ring_now r
        | None -> 0
      in
      let stall_from = State.now_units st in
      (* The sweep hands blocks back as it goes, so a stalled allocator
         retries whenever [sweep_progress] moves, not only at cycle end.
         That makes the out-of-memory verdict need a full collection
         that began after the stall did: the one already running when it
         began may end with the heap refilled by the mutators that
         allocated during its sweep. *)
      let baseline = ref (fulls_begun st) in
      let result = ref Heap.nil in
      while !result = Heap.nil do
        (* read before the attempt: progress made during a failed
           attempt still wakes the wait below *)
        let progress = Atomic.get st.sweep_progress in
        match attempt () with
        | Some addr -> result := addr
        | None ->
            (* a retry failing mid-cycle waits on: only an idle collector
               gets a request, and only after a full one does the heap grow *)
            (if
               (not (Atomic.get st.collecting))
               && Atomic.get st.gc_request = No_request
             then
               if fulls_done st <= !baseline then
                 ignore
                   (Atomic.compare_and_set st.gc_request No_request Want_full
                     : bool)
               else begin
                 State.lock_heap st;
                 let grown =
                   Heap.grow heap
                     ~want_bytes:
                       (Stdlib.max size
                          (Stdlib.max 65536 (Heap.capacity heap / 2)))
                 in
                 State.unlock_heap st;
                 if grown then baseline := fulls_begun st
                 else raise Out_of_memory
               end);
            Cost.stall cost Cost.c_cooperate;
            (* Sleep (cooperating, or handshakes would never complete)
               until the sweep frees more memory or the cycle ends, then
               retry. *)
            Substrate.wait_until (fun () ->
                Collector.cooperate st m;
                Atomic.get st.sweep_progress <> progress
                || (not (Atomic.get st.collecting))
                   && Atomic.get st.gc_request = No_request)
      done;
      Telemetry.record_stall tel (State.now_units st - stall_from);
      (match Mutator.ring m with
      | Some r ->
          Flight_recorder.span r Flight_recorder.Stall ~a:(Mutator.id m)
            ~t0:stall_ns0 ~t1:(Flight_recorder.ring_now r)
      | None -> ());
      !result

let alloc t m ~size ~n_slots =
  if t.st.parallel then alloc_domains t m ~size ~n_slots
  else alloc_sim t m ~size ~n_slots

let load t m ~x ~i =
  let st = t.st in
  Collector.cooperate st m;
  Substrate.yield ();
  Cost.mutator (State.mcost st m) Cost.c_load;
  Heap.get_slot st.heap x i

let store t m ~x ~i ~y =
  let st = t.st in
  Collector.cooperate st m;
  Substrate.yield ();
  Collector.update st m ~x ~i ~y

(* Scalar fields need no write barrier: the collector only cares about
   references (Section 2: the barrier is required only on modifications of
   references inside heap objects). *)
let load_data t m ~x ~i =
  let st = t.st in
  Collector.cooperate st m;
  Substrate.yield ();
  Cost.mutator (State.mcost st m) Cost.c_load;
  Heap.get_data st.heap x i

let store_data t m ~x ~i ~v =
  let st = t.st in
  Collector.cooperate st m;
  Substrate.yield ();
  Cost.mutator (State.mcost st m) Cost.c_store;
  Heap.set_data st.heap x i v

let work t m n =
  let st = t.st in
  Collector.cooperate st m;
  let units = n * Cost.c_compute in
  Cost.mutator (State.mcost st m) units;
  Observatory.maybe_sample st;
  (* Scheduled time must track charged work on both sides (the collector
     yields once per ~8 units), so a long computation burns proportionally
     many scheduling quanta — during which the collector runs. *)
  Substrate.yield_n (Stdlib.max 1 (units / 8))
