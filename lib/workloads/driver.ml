open Otfgc
module Heap = Otfgc_heap.Heap
module Sched = Otfgc_sched.Sched
module Substrate = Otfgc_sched.Substrate
module Parallel = Otfgc_sched.Parallel
module Rng = Otfgc_support.Rng
module Run_result = Otfgc_metrics.Run_result
module Observer = Otfgc_metrics.Observer

let default_heap =
  { Heap.initial_bytes = 1 lsl 20; max_bytes = 4 lsl 20; card_size = 16 }

(* Warmup barrier, shared by both substrates: every thread builds its
   long-lived data, then thread 0 runs a full collection (promoting the
   prebuilt data to the old generation) and resets the measurement
   ledgers — the standard warmup lap, so build-phase promotion does not
   pollute the reported partial collection statistics.  The barrier
   cells are atomics; under the simulator that is step-for-step what the
   historical plain refs were (no scheduling point moves), and under
   domains it is the required cross-domain publication. *)
let sync_point_for rt ~n ~prebuilt ~warm i m () =
  let st = Runtime.state rt in
  Atomic.incr prebuilt;
  if i = 0 then begin
    Substrate.wait_until (fun () ->
        Runtime.cooperate rt m;
        Atomic.get prebuilt = n);
    ignore (Runtime.collect_and_wait rt m ~full:true : Gc_stats.cycle);
    Gc_stats.reset (Runtime.stats rt);
    Cost.reset (Runtime.cost rt);
    Telemetry.reset (Runtime.telemetry rt);
    Sampler.reset (Runtime.sampler rt);
    Heap.reset_allocation_stats (Runtime.heap rt);
    if st.State.parallel then begin
      (* The other threads are parked at this barrier (cooperating, not
         allocating), so their ledgers and cache counters are quiescent
         enough to reset: warmup-lap work must not leak into the measured
         lap.  The cooperate polls they keep issuing while parked can
         lose a count or two into the freshly reset ledgers — measurement
         noise, bounded by the barrier window. *)
      State.iter_mutators st (fun m' ->
          (match Mutator.own_cost m' with
          | Some c -> Cost.reset c
          | None -> ());
          match Mutator.own_telemetry m' with
          | Some tl -> Telemetry.reset tl
          | None -> ());
      State.lock_heap st;
      State.iter_mutators st (fun m' ->
          ignore (Alloc_cache.take_pending (Mutator.cache m') : int * int));
      State.unlock_heap st
    end
    else
      (* The cost clock restarts, so the recorded events go too.  Under
         domains they stay: each ring's writer is still running, and
         only its writer may touch a ring. *)
      Flight_recorder.clear st.State.recorder;
    Atomic.set st.State.bytes_since_gc 0;
    Atomic.set warm true
  end
  else
    Substrate.wait_until (fun () ->
        Runtime.cooperate rt m;
        Atomic.get warm)

let run_sim ~heap ~seed ~scale ~instrument ~gc profile =
  Profile.validate profile;
  let rt = Runtime.create ~heap_config:heap ~gc_config:gc () in
  Runtime.set_fine_grained rt false;
  instrument rt;
  let master = Rng.make seed in
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.split master)) () in
  ignore (Runtime.spawn_collector rt sched);
  (* Model the paper's 4-way SMP when oversubscribed: the collector keeps
     a CPU to itself while N > 3 mutators share the remaining three, so it
     runs ~N/3 times faster than any single mutator. *)
  let n = profile.Profile.threads in
  if n > 3 then (Runtime.state rt).Otfgc.State.collector_speed <- 8 * n / 3;
  let quota =
    Stdlib.max 1
      (int_of_float (float_of_int profile.Profile.total_alloc *. scale))
  in
  let prebuilt = Atomic.make 0 in
  let warm = Atomic.make false in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "%s-t%d" profile.Profile.name i in
    let m = Runtime.new_mutator rt ~name () in
    let rng = Rng.split master in
    ignore
      (Sched.spawn sched ~name (fun () ->
           Engine.run_thread rt m rng ~profile ~quota
             ~sync_point:(sync_point_for rt ~n ~prebuilt ~warm i m)
             ();
           Runtime.retire_mutator rt m))
  done;
  Sched.run sched;
  (Run_result.of_runtime ~workload:profile.Profile.name rt, rt)

(* End-of-run finale for the domains substrate, run on the driving domain
   after every mutator domain has joined and before the collector daemon
   is: two back-to-back full collections at quiescence.  Two, not one —
   the first collection's toggle turns what was the clear color into the
   new allocation color, so garbage that was floating in the old clear
   color needs the second sweep to be reclaimed.  After this the heap
   holds exactly the reachable set (nothing is, all mutators retired), so
   the reachability oracle and Heap.check give the cross-substrate
   invariants something quiescent to verify. *)
let finale rt =
  Substrate.set_current Substrate.Domains;
  let st = Runtime.state rt in
  let stats = Runtime.stats rt in
  Substrate.wait_until (fun () ->
      (not (Atomic.get st.State.collecting))
      && Atomic.get st.State.gc_request = State.No_request);
  (* Pool-stocked blocks are reserved (kind Allocated): return them to
     the free list so the quiescent heap holds exactly the reachable
     set the oracle and Heap.check expect. *)
  Runtime.drain_pools rt;
  for _ = 1 to 2 do
    let n0 = Gc_stats.n_completed stats in
    Atomic.set st.State.gc_request State.Want_full;
    Substrate.wait_until (fun () ->
        Gc_stats.n_completed stats > n0
        && not (Atomic.get st.State.collecting))
  done;
  Runtime.shutdown rt

let run_domains ~heap ~seed ~scale ~instrument ~observer ~gc ~gc_workers
    profile =
  Profile.validate profile;
  let rt = Runtime.create ~heap_config:heap ~gc_config:gc () in
  Runtime.set_fine_grained rt false;
  Runtime.set_parallel rt true;
  Runtime.set_gc_workers rt gc_workers;
  instrument rt;
  (match observer with Some o -> Observer.launch o rt | None -> ());
  let master = Rng.make seed in
  (* The simulator's first split feeds its scheduling policy; consume the
     same split here so thread [i] draws the identical rng stream on both
     substrates.  Each thread's operation sequence is a pure function of
     its rng and the profile, which is what makes the end-of-run
     allocation totals exactly comparable across substrates. *)
  ignore (Rng.split master : Rng.t);
  let n = profile.Profile.threads in
  let quota =
    Stdlib.max 1
      (int_of_float (float_of_int profile.Profile.total_alloc *. scale))
  in
  let prebuilt = Atomic.make 0 in
  let warm = Atomic.make false in
  let par = Parallel.create ~on_quiesce:(fun () -> finale rt) () in
  Parallel.spawn par ~daemon:true ~name:"collector" (fun () ->
      Runtime.collector_loop rt);
  (* Helper collector workers (trace/card/sweep crew), daemons like the
     collector itself: they park between cycles and exit at shutdown. *)
  for wid = 1 to Runtime.gc_workers rt - 1 do
    Parallel.spawn par ~daemon:true ~name:(Printf.sprintf "gc-worker-%d" wid)
      (fun () -> Runtime.gc_worker_loop rt wid)
  done;
  let muts = ref [] in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "%s-t%d" profile.Profile.name i in
    let m = Runtime.new_mutator rt ~name () in
    muts := m :: !muts;
    let rng = Rng.split master in
    Parallel.spawn par ~name (fun () ->
        Engine.run_thread rt m rng ~profile ~quota
          ~sync_point:(sync_point_for rt ~n ~prebuilt ~warm i m)
          ();
        Runtime.retire_mutator rt m)
  done;
  Parallel.run par;
  Substrate.set_current Substrate.Sim;
  (match observer with Some o -> Observer.stop o | None -> ());
  (* Move the per-mutator ledgers into the shared ones, so Run_result
     sees whole-program work as it does under the simulator, and a
     [Metrics_snapshot.take] (shared plus own ledgers) still counts each
     unit once.  [Gc_par.merge_ledgers] does the same for the crew's
     helpers at every cycle end. *)
  List.iter
    (fun m ->
      (match Mutator.own_cost m with
      | Some c ->
          Cost.merge_into ~src:c ~dst:(Runtime.cost rt);
          Cost.reset c
      | None -> ());
      match Mutator.own_telemetry m with
      | Some tl ->
          Telemetry.merge_into ~src:tl ~dst:(Runtime.telemetry rt);
          Telemetry.reset tl
      | None -> ())
    !muts;
  (Run_result.of_runtime ~workload:profile.Profile.name rt, rt)

let run_rt ?(heap = default_heap) ?(seed = 42) ?(scale = 1.0)
    ?(substrate = Substrate.Sim) ?threads ?(gc_workers = 1)
    ?(instrument = fun (_ : Runtime.t) -> ()) ?observer ~gc profile =
  let profile =
    match threads with
    | None -> profile
    | Some n -> { profile with Profile.threads = n }
  in
  match substrate with
  | Substrate.Sim ->
      if gc_workers > 1 then
        invalid_arg "Driver.run_rt: gc_workers > 1 requires substrate=domains";
      if observer <> None then
        invalid_arg "Driver.run_rt: observer requires substrate=domains";
      run_sim ~heap ~seed ~scale ~instrument ~gc profile
  | Substrate.Domains ->
      run_domains ~heap ~seed ~scale ~instrument ~observer ~gc ~gc_workers
        profile

let run ?heap ?seed ?scale ?substrate ?threads ?gc_workers ~gc profile =
  fst (run_rt ?heap ?seed ?scale ?substrate ?threads ?gc_workers ~gc profile)

let run_pair ?heap ?seed ?scale ~gc profile =
  let candidate = run ?heap ?seed ?scale ~gc profile in
  let baseline_gc = { gc with Gc_config.mode = Gc_config.Non_generational } in
  let baseline = run ?heap ?seed ?scale ~gc:baseline_gc profile in
  (candidate, baseline)
