(* Cross-substrate validation: the real-domains substrate must reach the
   same end-of-run state as the deterministic simulator, up to scheduling.

   The driver aligns the per-thread rng streams across substrates, so the
   *program* each mutator executes is identical — only the interleaving
   (and hence collection timing) differs.  That gives us sharp invariants
   to compare:

   - allocation totals (bytes and objects) match exactly;
   - after the quiescent finale (two full collections) the reachability
     oracle finds zero lost/leaked objects and the heap checker passes;
   - promotion counts agree within a generous tolerance (promotion is
     timing-dependent: an object tenures iff it survives enough cycles,
     and the domains substrate runs a different number of cycles).

   Byte-identity of the event stream is deliberately NOT compared — that
   is the sim digest guard's job, and it is meaningless across real
   schedules. *)

open Otfgc_workloads
module Substrate = Otfgc_sched.Substrate
module Parallel = Otfgc_sched.Parallel
module Heap = Otfgc_heap.Heap
module State = Otfgc.State
module Oracle = Otfgc.Oracle
module Runtime = Otfgc.Runtime
module Mutator = Otfgc.Mutator
module Gc_stats = Otfgc.Gc_stats
module Gc_par = Otfgc.Gc_par
module Status = Otfgc.Status
module Run_result = Otfgc_metrics.Run_result
module Trace_export = Otfgc_metrics.Trace_export
module Flight_recorder = Otfgc.Flight_recorder

let total_promotions rt =
  let stats = (Runtime.state rt).State.stats in
  let by kind = Gc_stats.sum stats kind (fun c -> float_of_int c.promotions) in
  int_of_float (by Partial +. by Full +. by Non_gen)

(* One grid point: run the same (profile, gc, threads, seed) on both
   substrates and check every cross-substrate invariant.  [gc_workers]
   applies to the domains side only (the simulator always runs the
   width-1 crew) — the invariants must hold for any crew width. *)
let check_config ~name ~profile ~gc ~threads ~seed ~scale ?(gc_workers = 1)
    ?instrument () =
  let sim_res, sim_rt = Driver.run_rt ~seed ~scale ~threads ~gc profile in
  let dom_res, dom_rt =
    Driver.run_rt ~seed ~scale ~substrate:Substrate.Domains ~threads
      ~gc_workers ?instrument ~gc profile
  in
  Alcotest.(check int)
    (name ^ ": total_alloc_bytes equal across substrates")
    sim_res.Run_result.total_alloc_bytes dom_res.Run_result.total_alloc_bytes;
  Alcotest.(check int)
    (name ^ ": total_alloc_objects equal across substrates")
    sim_res.Run_result.total_alloc_objects dom_res.Run_result.total_alloc_objects;
  (* Zero lost objects: everything unreachable was reclaimed by the
     finale, and nothing reachable was freed (the oracle would have
     tripped an assert inside the run if it had been). *)
  Alcotest.(check (list int))
    (name ^ ": oracle finds no garbage after the domains finale")
    [] (Oracle.garbage (Runtime.state dom_rt));
  (match Heap.check ~check_slots:true (Runtime.heap dom_rt) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: domains heap check failed: %s" name msg);
  (match Oracle.check_intergen_invariant (Runtime.state dom_rt) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: domains intergen invariant: %s" name msg);
  (* Live census: all workload roots are dropped at retirement, so after
     two quiescent full collections nothing should remain allocated. *)
  Alcotest.(check int)
    (name ^ ": domains heap empty at quiescence")
    0 (Heap.object_count (Runtime.heap dom_rt));
  (* Promotion tolerance: scheduling changes how many cycles an object
     lives through, so only order-of-magnitude agreement is meaningful. *)
  let sim_promoted = total_promotions sim_rt
  and dom_promoted = total_promotions dom_rt in
  let ceiling = (5 * sim_promoted) + 500 in
  if dom_promoted > ceiling then
    Alcotest.failf "%s: domains promoted %d objects, sim %d (ceiling %d)"
      name dom_promoted sim_promoted ceiling

let grid_case ~name ~profile ~gc ~threads ?(seed = 42) ?(scale = 0.04)
    ?(gc_workers = 1) () =
  Alcotest.test_case name `Slow (fun () ->
      check_config ~name ~profile ~gc ~threads ~seed ~scale ~gc_workers ())

let grid =
  let open Otfgc.Gc_config in
  [
    grid_case ~name:"anagram/gen/1" ~profile:Profile.anagram
      ~gc:(generational ()) ~threads:1 ();
    grid_case ~name:"anagram/gen/2" ~profile:Profile.anagram
      ~gc:(generational ()) ~threads:2 ();
    grid_case ~name:"anagram/nongen/1" ~profile:Profile.anagram
      ~gc:non_generational ~threads:1 ();
    grid_case ~name:"anagram/aging2/2" ~profile:Profile.anagram
      ~gc:(aging ~oldest_age:2 ()) ~threads:2 ();
    grid_case ~name:"anagram/adaptive/1" ~profile:Profile.anagram
      ~gc:(adaptive ()) ~threads:1 ();
    grid_case ~name:"jack/gen/2" ~profile:Profile.jack ~gc:(generational ())
      ~threads:2 ~seed:7 ();
    grid_case ~name:"raytracer/gen/2" ~profile:(Profile.raytracer ~threads:2)
      ~gc:(generational ()) ~threads:2 ~scale:0.02 ();
    (* Multi-worker crew: the same cross-substrate invariants must hold
       when card scan, trace and sweep run on 2 (and 3) worker domains
       with work-stealing deques and pooled allocation. *)
    grid_case ~name:"anagram/gen/2 + 2 gc workers" ~profile:Profile.anagram
      ~gc:(generational ()) ~threads:2 ~gc_workers:2 ();
    grid_case ~name:"anagram/aging2/2 + 2 gc workers"
      ~profile:Profile.anagram
      ~gc:(aging ~oldest_age:2 ())
      ~threads:2 ~gc_workers:2 ();
    grid_case ~name:"anagram/nongen/1 + 3 gc workers"
      ~profile:Profile.anagram ~gc:non_generational ~threads:1 ~gc_workers:3
      ();
    grid_case ~name:"raytracer/gen/2 + 2 gc workers"
      ~profile:(Profile.raytracer ~threads:2)
      ~gc:(generational ()) ~threads:2 ~scale:0.02 ~gc_workers:2 ();
    (* Guard: an explicitly requested crew of width 1 is the crew the
       simulator runs — exact allocation totals versus sim stay
       byte-identical. *)
    grid_case ~name:"anagram/gen/2 + explicit 1 gc worker"
      ~profile:Profile.anagram ~gc:(generational ()) ~threads:2 ~gc_workers:1
      ();
  ]

(* The test runner sends a case's output to a log file; a watchdog also
   writes to the console the process started with, since the runner never
   gets to report a case the watchdog ends. *)
let console = Unix.dup Unix.stderr

(* Run [f] under a wall-clock deadline.  A hung domains run cannot be
   interrupted from outside — its domains sleep in their wait loops, and
   the caller sits in [Domain.join] — so a watchdog domain reports [what]
   and exits the test process with a failure status once the deadline
   passes, instead of letting the suite hang.  [dump] describes the
   hung run's state for the report. *)
let with_deadline ?(dump = fun () -> "") ~seconds ~what f =
  let finished = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        let until = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < until do
          Unix.sleepf 0.05
        done;
        if not (Atomic.get finished) then begin
          let msg =
            Printf.sprintf "%s: still running after the %g s deadline\n%s"
              what seconds (dump ())
          in
          prerr_string msg;
          flush stderr;
          ignore (Unix.write_substring console msg 0 (String.length msg) : int);
          exit 3
        end)
  in
  Fun.protect f ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join watchdog)

(* A jitter seed takes a few seconds; a lost wake-up once hung one for
   more than ten minutes. *)
let jitter_deadline_s = 120.0

(* The handshake and crew state of a domains run, read racily from the
   watchdog: enough to tell which side a hung run waits on. *)
let dump_domains rt =
  let st = Runtime.state rt in
  let b = Buffer.create 256 in
  Printf.bprintf b "  posted status %s, collecting %b\n"
    (Status.to_string (Atomic.get st.State.status_c))
    (Atomic.get st.State.collecting);
  State.iter_mutators st (fun m ->
      Printf.bprintf b "  mutator %s: %s%s\n" (Mutator.name m)
        (Status.to_string (Mutator.status m))
        (if Mutator.active m then "" else " (retired)"));
  let par = st.State.par in
  Printf.bprintf b "  crew phase %s, epoch %d, idle %d, done %d of %d helpers\n"
    (match par.Gc_par.phase with
    | Gc_par.Idle -> "idle"
    | Cards -> "cards"
    | Trace -> "trace"
    | Sweep -> "sweep")
    (Atomic.get par.Gc_par.epoch)
    (Atomic.get par.Gc_par.idle)
    (Atomic.get par.Gc_par.done_count)
    (par.Gc_par.n_workers - 1);
  (* the rings' tails: what each process recorded last *)
  List.iter
    (fun (e : Flight_recorder.event) ->
      Printf.bprintf b "  %-12s %-14s %-18s a=%d b=%d t0=%d\n" e.track
        (Flight_recorder.kind_name e.kind) (Trace_export.name_of e) e.a e.b
        e.t0_ns)
    (Flight_recorder.recent (Runtime.recorder rt) ~n:32);
  Buffer.contents b

(* Stress: arm the substrate's jitter hook so every yield point may burn
   a random spin — this perturbs the interleaving at exactly the
   barrier/handshake-sensitive program points.  The invariants must hold
   under any schedule the jitter produces, and each seed must finish
   within [jitter_deadline_s]. *)
let stress_jitter () =
  let gc = Otfgc.Gc_config.generational () in
  Fun.protect ~finally:Substrate.clear_jitter (fun () ->
      List.iter
        (fun seed ->
          Substrate.set_jitter ~seed ~prob:0.05 ~max_spin:400;
          let name = Printf.sprintf "jitter seed %d" seed in
          let rt = Atomic.make None in
          let dump () =
            match Atomic.get rt with
            | Some rt -> dump_domains rt
            | None -> "  the domains run had not started\n"
          in
          with_deadline ~dump ~seconds:jitter_deadline_s ~what:name (fun () ->
              check_config ~name ~profile:Profile.anagram ~gc ~threads:2 ~seed
                ~scale:0.03
                ~instrument:(fun r ->
                  Runtime.arm_recorder r;
                  Atomic.set rt (Some r))
                ()))
        [ 1; 2; 3 ])

(* One mutator, the collector and [gc_workers - 1] crew helpers on real
   domains, over a heap that cannot grow (initial = max).  The mutator
   is retired even when [body] raises, so the collector never waits on
   its handshake. *)
let on_domains ?gc_config ?(gc_workers = 1) ~heap_bytes body =
  let heap_config =
    { Heap.initial_bytes = heap_bytes; max_bytes = heap_bytes; card_size = 16 }
  in
  let rt = Runtime.create ~heap_config ?gc_config () in
  Runtime.set_fine_grained rt false;
  Runtime.set_parallel rt true;
  Runtime.set_gc_workers rt gc_workers;
  let par = Parallel.create ~on_quiesce:(fun () -> Runtime.shutdown rt) () in
  Parallel.spawn par ~daemon:true ~name:"collector" (fun () ->
      Runtime.collector_loop rt);
  for wid = 1 to gc_workers - 1 do
    Parallel.spawn par ~daemon:true ~name:(Printf.sprintf "gc-worker-%d" wid)
      (fun () -> Runtime.gc_worker_loop rt wid)
  done;
  let m = Runtime.new_mutator rt ~name:"mutator" () in
  let result = ref None in
  Parallel.spawn par ~name:"mutator" (fun () ->
      Fun.protect
        ~finally:(fun () -> Runtime.retire_mutator rt m)
        (fun () -> result := Some (body rt m)));
  Fun.protect
    ~finally:(fun () -> Substrate.set_current Substrate.Sim)
    (fun () -> Parallel.run par);
  Option.get !result

(* [pages_touched] must be exact, not approximate, at every crew width:
   the per-worker touched-page sets read at cycle end must union to the
   set worker 0 computes alone at width 1.  To compare across widths the heap
   snapshot each cycle sees must be identical, so the single mutator only
   requests collections from quiescent points — it parks in
   [collect_and_wait] while the (1-, 2- or 3-wide) crew runs, and the
   heap is far below every automatic trigger. *)
let pages_at_width ~gc_workers =
  on_domains ~gc_config:(Otfgc.Gc_config.aging ~oldest_age:2 ()) ~gc_workers
    ~heap_bytes:(1024 * 1024) (fun rt m ->
      (* deterministic structure: a 200-node list hanging off one root *)
      let root = Runtime.alloc rt m ~size:64 ~n_slots:4 in
      Mutator.set_reg m 0 root;
      let prev = ref root in
      for _ = 2 to 200 do
        let o = Runtime.alloc rt m ~size:48 ~n_slots:4 in
        Mutator.set_reg m 1 o;
        Runtime.store rt m ~x:o ~i:0 ~y:!prev;
        prev := o
      done;
      Runtime.store rt m ~x:root ~i:1 ~y:!prev;
      Mutator.clear_reg m 1;
      (* full cycle ages/promotes the structure *)
      let c1 = Runtime.collect_and_wait rt m ~full:true in
      ignore (Runtime.collect_and_wait rt m ~full:true : Gc_stats.cycle);
      (* young allocs plus old->young stores to dirty some cards *)
      let o = ref root in
      for i = 1 to 50 do
        let y = Runtime.alloc rt m ~size:32 ~n_slots:0 in
        Mutator.set_reg m 1 y;
        Runtime.store rt m ~x:!o ~i:2 ~y;
        Mutator.clear_reg m 1;
        if i mod 2 = 0 then begin
          let next = Runtime.load rt m ~x:!o ~i:0 in
          o := (if next = Heap.nil then root else next)
        end
      done;
      let c2 = Runtime.collect_and_wait rt m ~full:false in
      (c1.Gc_stats.pages_touched, c2.Gc_stats.pages_touched))

let test_pages_exact_across_widths () =
  let f1, p1 = pages_at_width ~gc_workers:1 in
  Alcotest.(check bool) "width-1 cycles touched pages" true (f1 > 0 && p1 > 0);
  List.iter
    (fun w ->
      let fw, pw = pages_at_width ~gc_workers:w in
      Alcotest.(check int)
        (Printf.sprintf "full-cycle pages identical at width %d" w)
        f1 fw;
      Alcotest.(check int)
        (Printf.sprintf "partial-cycle pages identical at width %d" w)
        p1 pw)
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Allocation stalls on the domains substrate                          *)
(* ------------------------------------------------------------------ *)

(* The sweep hands memory back as it goes, so a stalled allocator must
   be able to resume before the cycle it waits on completes.  How often
   a domains run shows it depends on how the host schedules the two
   domains (about nine stalls in ten on an idle 2-core host, under a
   fifth beside a loaded one), so the property is checked in two halves
   that do not depend on the host.

   The wake-up: the domains stall's wait predicate, driven directly,
   ends on a [sweep_progress] bump alone while [collecting] is up, and
   not before.

   The policy, on the simulator's fixed schedule: a 128 KB heap that is
   almost all garbage keeps the collector cycling and the mutator
   stalling; every stall is classified by whether
   [Gc_stats.n_completed] moved while it lasted.  When stalls only end
   at cycle end, every one spans a completion, so the test asks for at
   least a tenth to end mid-cycle. *)
let test_stall_ends_mid_cycle () =
  let rt = Runtime.create () in
  Runtime.set_fine_grained rt false;
  Runtime.set_parallel rt true;
  let st = Runtime.state rt in
  let m = Runtime.new_mutator rt ~name:"stalled" () in
  Atomic.set st.State.collecting true;
  let progress = Atomic.get st.State.sweep_progress in
  Alcotest.(check bool) "a running cycle holds the wait" false
    (Runtime.stall_wait_over rt m ~progress);
  Atomic.incr st.State.sweep_progress;
  Alcotest.(check bool) "sweep progress alone ends it mid-cycle" true
    (Runtime.stall_wait_over rt m ~progress);
  let stalls, mid_cycle =
    let heap_config =
      { Heap.initial_bytes = 128 * 1024; max_bytes = 128 * 1024; card_size = 16 }
    in
    let rt = Runtime.create ~heap_config () in
    Runtime.set_fine_grained rt false;
    let st = Runtime.state rt in
    let sched =
      Otfgc_sched.Sched.create
        ~policy:(Otfgc_sched.Sched.random_policy (Otfgc_support.Rng.make 42))
        ()
    in
    ignore (Runtime.spawn_collector rt sched : Otfgc_sched.Sched.pid);
    let m = Runtime.new_mutator rt ~name:"mutator" () in
    let tel = State.mtelemetry st m in
    let stalls = ref 0 and mid_cycle = ref 0 and allocs = ref 0 in
    ignore
      (Otfgc_sched.Sched.spawn sched ~name:"mutator" (fun () ->
           while !stalls < 200 && !allocs < 5_000_000 do
             let done0 = Gc_stats.n_completed st.State.stats in
             let stalls0 = Otfgc.Telemetry.stalls tel in
             (* one live object at a time: the rest is garbage *)
             Mutator.set_reg m 0 (Runtime.alloc rt m ~size:32 ~n_slots:2);
             incr allocs;
             if Otfgc.Telemetry.stalls tel > stalls0 then begin
               incr stalls;
               if Gc_stats.n_completed st.State.stats = done0 then
                 incr mid_cycle
             end
           done;
           Runtime.shutdown rt)
        : Otfgc_sched.Sched.pid);
    Otfgc_sched.Sched.run sched;
    (!stalls, !mid_cycle)
  in
  Alcotest.(check bool) "the mutator stalled" true (stalls > 0);
  if 10 * mid_cycle < stalls then
    Alcotest.failf "only %d of %d stalls ended before a cycle completed"
      mid_cycle stalls

(* A live set larger than the heap maximum must end in [Out_of_memory]
   on the domains substrate too, not in a stall that never gives up. *)
let test_domains_out_of_memory () =
  let raised =
    with_deadline ~seconds:60.0 ~what:"domains out-of-memory" (fun () ->
        match
          on_domains ~heap_bytes:(64 * 1024) (fun rt m ->
              (* 2000 live 64-byte nodes: about twice the maximum *)
              for _ = 1 to 2000 do
                let node = Runtime.alloc rt m ~size:64 ~n_slots:2 in
                Mutator.set_reg m 1 node;
                let head = Mutator.get_reg m 0 in
                if head <> Heap.nil then Runtime.store rt m ~x:node ~i:0 ~y:head;
                Mutator.set_reg m 0 node;
                Mutator.clear_reg m 1
              done)
        with
        | () -> false
        | exception Runtime.Out_of_memory -> true)
  in
  Alcotest.(check bool) "raises Out_of_memory" true raised

(* ------------------------------------------------------------------ *)
(* Host allocation on the runtime calls                                *)
(* ------------------------------------------------------------------ *)

(* An OCaml 5 minor collection stops every domain, so a host word that
   a runtime call allocates lands in every client's tail.  Measured with
   [Gc.minor_words], which counts the calling domain's words only, over
   warm calls: the first calls fill the allocation cache, the pools and
   the free lists' buffers. *)
let words_per_call f =
  for _ = 1 to 1_000 do
    f ()
  done;
  let calls = 20_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let check_no_words what words =
  if words <> 0. then Alcotest.failf "%s: %.2f host words per call" what words

(* No cycle runs while the calls are measured (the heap and the young
   window are far above what they allocate): the handshake response that
   marks the roots builds a closure once per cycle. *)
let test_domains_calls_allocate_nothing () =
  let results =
    with_deadline ~seconds:60.0 ~what:"host allocation" (fun () ->
        on_domains
          ~gc_config:(Otfgc.Gc_config.generational ~young_bytes:(1 lsl 30) ())
          ~heap_bytes:(8 * 1024 * 1024)
          (fun rt m ->
            let st = Runtime.state rt in
            let x = Runtime.alloc rt m ~size:48 ~n_slots:2 in
            Mutator.set_reg m 0 x;
            let y = Runtime.alloc rt m ~size:48 ~n_slots:2 in
            Mutator.set_reg m 1 y;
            let calls =
              [
                ( "alloc",
                  fun () -> ignore (Runtime.alloc rt m ~size:32 ~n_slots:2 : int) );
                ("store", fun () -> Runtime.store rt m ~x ~i:0 ~y);
                ("load", fun () -> ignore (Runtime.load rt m ~x ~i:0 : int));
                ("store_data", fun () -> Runtime.store_data rt m ~x ~i:0 ~v:7);
                ("load_data", fun () -> ignore (Runtime.load_data rt m ~x ~i:0 : int));
              ]
            in
            let words = List.map (fun (what, f) -> (what, words_per_call f)) calls in
            let begun k = Gc_stats.n_begun_of st.State.stats k in
            ( words,
              begun Gc_stats.Partial + begun Gc_stats.Full
              + begun Gc_stats.Non_gen )))
  in
  let words, cycles = results in
  Alcotest.(check int) "no cycle began" 0 cycles;
  List.iter (fun (what, w) -> check_no_words ("domains " ^ what) w) words

(* The simulator's store runs the same barrier.  One process: each yield
   hands the CPU straight back, so no continuation is captured. *)
let test_sim_store_allocates_nothing () =
  List.iter
    (fun (name, gc_config) ->
      let rt = Runtime.create ~gc_config () in
      let m = Runtime.new_mutator rt ~name:"m" () in
      let sched = Otfgc_sched.Sched.create () in
      let words = ref nan in
      ignore
        (Otfgc_sched.Sched.spawn sched ~name:"m" (fun () ->
             let x = Runtime.alloc rt m ~size:48 ~n_slots:2 in
             Mutator.set_reg m 0 x;
             let y = Runtime.alloc rt m ~size:48 ~n_slots:2 in
             Mutator.set_reg m 1 y;
             words := words_per_call (fun () -> Runtime.store rt m ~x ~i:0 ~y))
          : Otfgc_sched.Sched.pid);
      Otfgc_sched.Sched.run sched;
      check_no_words ("sim store, " ^ name) !words)
    [
      ("gen", Otfgc.Gc_config.generational ());
      ("remset", Otfgc.Gc_config.generational ~intergen:Otfgc.Gc_config.Remembered_set ());
      ("aging:2", Otfgc.Gc_config.aging ~oldest_age:2 ());
      ("nongen", Otfgc.Gc_config.non_generational);
    ]

(* ------------------------------------------------------------------ *)
(* Whole-program totals on the domains substrate                       *)
(* ------------------------------------------------------------------ *)

(* On domains each mutator charges a ledger of its own, so a reader of
   the shared ledger alone sees none of the mutators' work.  The
   cycle-end progress sample and the sampled rows' [stalls] must read
   the fold over every ledger: progress while a cycle runs is nonzero,
   and the observer's rows, the last taken at quiescence, count every
   stall the totals do. *)
let test_totals_reach_cycle_and_rows () =
  let observer =
    Otfgc_metrics.Observer.create
      {
        Otfgc_metrics.Observer.every_ms = 2.;
        om_path = None;
        jsonl_path = None;
        live = false;
        labels = [];
      }
  in
  let _, rt =
    with_deadline ~seconds:120.0 ~what:"domains totals" (fun () ->
        Driver.run_rt ~seed:42 ~scale:0.05 ~substrate:Substrate.Domains
          ~threads:2 ~observer
          ~instrument:(fun rt ->
            Otfgc.Telemetry.set_enabled (Runtime.telemetry rt) true)
          ~gc:(Otfgc.Gc_config.generational ()) Profile.anagram)
  in
  let tel = (Otfgc.State.totals (Runtime.state rt)).Otfgc.Ledger.tel in
  let progress = Otfgc.Telemetry.cycle_progress tel in
  Alcotest.(check bool) "cycles sampled progress" true
    (Otfgc_support.Histogram.count progress > 0);
  Alcotest.(check bool) "mutators progress while a cycle runs" true
    (Otfgc_support.Histogram.max_value progress > 0);
  let row_stalls =
    List.fold_left
      (fun acc (r : Otfgc.Metrics_snapshot.t) -> max acc r.stalls)
      0
      (Otfgc.Sampler.rows (Runtime.sampler rt))
  in
  Alcotest.(check bool) "the mutators stalled" true
    (Otfgc.Telemetry.stalls tel > 0);
  Alcotest.(check int) "row stalls reach the totals'"
    (Otfgc.Telemetry.stalls tel) row_stalls;
  (* the stall latencies are recorded on the mutators' own ledgers:
     post-run readers of the totals (the speedup sweep's stall and SLO
     columns) must see them *)
  if Otfgc.Telemetry.stalls tel > 0 then
    Alcotest.(check bool) "totals carry the stall latencies" true
      (Otfgc_support.Histogram.count (Otfgc.Telemetry.stall_latency tel) > 0)

let suites =
  [
    ( "domains.totals",
      [
        Alcotest.test_case "cycle progress and census stalls" `Quick
          test_totals_reach_cycle_and_rows;
      ] );
    ( "runtime.host_alloc",
      [
        Alcotest.test_case "warm domains calls allocate nothing" `Quick
          test_domains_calls_allocate_nothing;
        Alcotest.test_case "simulator store allocates nothing" `Quick
          test_sim_store_allocates_nothing;
      ] );
    ( "domains.stall",
      [
        Alcotest.test_case "stalls end mid-cycle" `Quick
          test_stall_ends_mid_cycle;
        Alcotest.test_case "out of memory raises" `Quick
          test_domains_out_of_memory;
      ] );
    ( "parallel.cross-check",
      grid
      @ [
          Alcotest.test_case "jitter stress at handshake points" `Slow
            stress_jitter;
          Alcotest.test_case "pages_touched exact across crew widths" `Slow
            test_pages_exact_across_widths;
        ] );
  ]
