(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation section (Figures 7-23) and runs Bechamel micro-benchmarks of
   the collector's hot paths.

   Usage:
     main.exe                 regenerate every figure (headline at scale 0.5,
                              sweeps at scale 0.25)
     main.exe fig9 fig21 ...  regenerate selected figures
     main.exe --quick         everything at reduced scale (CI smoke run)
     main.exe micro           only the Bechamel micro-benchmarks
                              (micro --quick: reduced quota, CI smoke)
     main.exe trajectory      run the pinned perf-trajectory grid (fanned
                              out across --jobs domains), diff it against
                              the last committed BENCH_*.json and exit 1 on
                              regression; on failure an attribution table
                              ranks the collector phases and event counters
                              that moved most (trajectory --quick: the CI
                              gate; --out FILE overrides BENCH_0010.json;
                              --threshold PCT overrides the 5% noise bar;
                              --against FILE pins the baseline explicitly —
                              an unreadable or incomparable FILE is then a
                              hard failure; --report FILE renders every
                              committed BENCH_*.json plus the current run
                              into a self-contained HTML/SVG dashboard)
     main.exe speedup         real-domains wall-clock speedup sweep:
                              raytracer at fixed total work for mutator
                              counts 1,2,4..., written in the trajectory
                              schema to --out (default speedup.json);
                              --gc-workers N widens the collection crew
                              (worker-scaling curve); --slo adds the SLO
                              column (p50/p99.9 handshake and stall tail
                              latencies) per point; records the visible
                              core count and warns on oversubscription;
                              machine-dependent, never gated
     main.exe --scale 0.4     override the headline scale
     main.exe --jobs 8        simulation parallelism (domains; default
                              OTFGC_JOBS or the recommended domain count)
     main.exe --no-cache      ignore the persistent _cache/ directory

   All runs are enumerated up front and fanned out across domains as one
   batch; results are memoised on disk under _cache/, so a repeated
   regeneration performs zero simulation runs. *)

module Lab = Otfgc_experiments.Lab
module Registry = Otfgc_experiments.Registry
module Textable = Otfgc_support.Textable

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot paths                          *)
(* ------------------------------------------------------------------ *)

module Micro = struct
  open Bechamel
  open Toolkit
  module Heap = Otfgc_heap.Heap
  module Color = Otfgc_heap.Color
  module Sched = Otfgc_sched.Sched
  module Rng = Otfgc_support.Rng
  open Otfgc

  let kb = 1024

  (* allocation + free round trip on the segregated free lists *)
  let test_alloc_free =
    let heap =
      Heap.create { Heap.initial_bytes = 256 * kb; max_bytes = 256 * kb; card_size = 16 }
    in
    Test.make ~name:"heap: alloc+free 32B"
      (Staged.stage (fun () ->
           let a = Option.get (Heap.alloc heap ~size:32 ~n_slots:2 ~color:Color.C0) in
           Heap.free heap a))

  (* ---------------------------------------------------------------- *)
  (* Hot-path data structures, new representation vs the original      *)
  (* list-based one (kept inline here as the benchmark baseline)       *)
  (* ---------------------------------------------------------------- *)

  module Space = Otfgc_heap.Space
  module Layout = Otfgc_heap.Layout
  module Freelist = Otfgc_heap.Freelist
  module Card_table = Otfgc_heap.Card_table

  (* The cons-list segregated freelist this repo used before the
     bitmap/array rewrite — same validity rule and candidate order. *)
  module Legacy_freelist = struct
    let n_exact = 63
    let n_classes = n_exact + 1
    let class_of_granules gr = if gr <= n_exact then gr - 1 else n_exact

    type t = { space : Space.t; lists : int list array }

    let push_raw t addr =
      let cls =
        class_of_granules (Space.block_size t.space addr / Layout.granule)
      in
      t.lists.(cls) <- addr :: t.lists.(cls)

    let create space =
      let t = { space; lists = Array.make n_classes [] } in
      Space.iter_blocks space (fun addr kind _size ->
          if kind = Space.Free then push_raw t addr);
      t

    let valid t cls addr =
      Space.is_block_start t.space addr
      && Space.kind_of t.space addr = Space.Free
      && class_of_granules (Space.block_size t.space addr / Layout.granule)
         = cls

    let rec pop_class t cls =
      match t.lists.(cls) with
      | [] -> None
      | addr :: rest ->
          t.lists.(cls) <- rest;
          if valid t cls addr then Some addr else pop_class t cls

    let pop_large t ~granules =
      let rec scan acc = function
        | [] ->
            t.lists.(n_exact) <- List.rev acc;
            None
        | addr :: rest ->
            if not (valid t n_exact addr) then scan acc rest
            else if
              Space.block_size t.space addr / Layout.granule >= granules
            then begin
              t.lists.(n_exact) <- List.rev_append acc rest;
              Some addr
            end
            else scan (addr :: acc) rest
      in
      scan [] t.lists.(n_exact)

    let pop t ~bytes_wanted =
      let want_g = Layout.granules_of_bytes (Stdlib.max 1 bytes_wanted) in
      let want_b = Layout.bytes_of_granules want_g in
      let exact =
        if want_g <= n_exact then pop_class t (want_g - 1) else None
      in
      match exact with
      | Some addr -> Some addr
      | None ->
          let found = ref None in
          let cls = ref (if want_g <= n_exact then want_g else n_exact) in
          while !found = None && !cls < n_exact do
            (match pop_class t !cls with
            | Some addr -> found := Some addr
            | None -> ());
            incr cls
          done;
          let found =
            match !found with
            | Some a -> Some a
            | None -> pop_large t ~granules:want_g
          in
          (match found with
          | None -> None
          | Some addr ->
              let have = Space.block_size t.space addr in
              if have > want_b then begin
                let rest = Space.split t.space addr ~first_bytes:want_b in
                push_raw t rest
              end;
              Some addr)
  end

  (* exact-class steady state: after the first split the 32 B class stays
     populated, so each run is pop (bitmap probe or class head) + push *)
  let test_freelist_pop_exact =
    let s = Space.create ~initial_bytes:(256 * kb) ~max_bytes:(256 * kb) () in
    let fl = Freelist.create s in
    Test.make ~name:"freelist: pop+push 32B exact"
      (Staged.stage (fun () ->
           let a = Freelist.pop fl ~bytes_wanted:32 in
           Freelist.push fl a))

  let test_freelist_pop_exact_legacy =
    let s = Space.create ~initial_bytes:(256 * kb) ~max_bytes:(256 * kb) () in
    let fl = Legacy_freelist.create s in
    Test.make ~name:"freelist: pop+push 32B exact (legacy list)"
      (Staged.stage (fun () ->
           let a = Option.get (Legacy_freelist.pop fl ~bytes_wanted:32) in
           Legacy_freelist.push_raw fl a))

  (* split + behind-the-back coalesce + stale drop, the sweep-adjacent
     worst case.  The only donor block sits in the top exact class
     (1008 B = class 62), so every run drops a stale entry and then must
     locate that distant class: one ctz probe on the bitmap versus the
     legacy walk over ~60 empty classes. *)
  let test_freelist_split_stale =
    let s = Space.create ~initial_bytes:1008 ~max_bytes:1008 () in
    let fl = Freelist.create s in
    Test.make ~name:"freelist: split 1008B + coalesce + stale"
      (Staged.stage (fun () ->
           let a = Freelist.pop fl ~bytes_wanted:32 in
           ignore (Space.coalesce_with_next s a : bool);
           Freelist.push fl a))

  let test_freelist_split_stale_legacy =
    let s = Space.create ~initial_bytes:1008 ~max_bytes:1008 () in
    let fl = Legacy_freelist.create s in
    Test.make ~name:"freelist: split 1008B + coalesce + stale (legacy list)"
      (Staged.stage (fun () ->
           let a = Option.get (Legacy_freelist.pop fl ~bytes_wanted:32) in
           ignore (Space.coalesce_with_next s a : bool);
           Legacy_freelist.push_raw fl a))

  (* first-fit miss over a long large class: 1024 one-KB blocks (kept
     apart by allocated guards), asking for 2 KB.  The array scan touches
     each entry once; the legacy scan also rebuilds the whole list. *)
  let mk_fragmented n =
    let s =
      Space.create ~initial_bytes:(n * 1040) ~max_bytes:(n * 1040) ()
    in
    let a = ref 0 in
    for _ = 1 to n - 1 do
      let guard = Space.split s !a ~first_bytes:1024 in
      let next = Space.split s guard ~first_bytes:16 in
      Space.set_kind s guard Space.Allocated;
      a := next
    done;
    s

  let test_freelist_large_miss =
    let s = mk_fragmented 1024 in
    let fl = Freelist.create s in
    Test.make ~name:"freelist: large-class miss, 1024 entries"
      (Staged.stage (fun () ->
           assert (Freelist.pop fl ~bytes_wanted:2048 = -1)))

  let test_freelist_large_miss_legacy =
    let s = mk_fragmented 1024 in
    let fl = Legacy_freelist.create s in
    Test.make ~name:"freelist: large-class miss, 1024 entries (legacy list)"
      (Staged.stage (fun () ->
           assert (Legacy_freelist.pop fl ~bytes_wanted:2048 = None)))

  (* the gray stack, array vs the original cons list *)
  module Legacy_gray = struct
    type t = int list ref

    let create () : t = ref []
    let push (t : t) x = t := x :: !t

    let pop (t : t) =
      match !t with
      | [] -> None
      | x :: rest ->
          t := rest;
          Some x
  end

  let gray_batch = 256

  let test_gray_push_pop =
    let q = Otfgc.Gray_queue.create () in
    Test.make ~name:"gray: push+pop x256 (array stack)"
      (Staged.stage (fun () ->
           for i = 1 to gray_batch do
             Otfgc.Gray_queue.push q i
           done;
           for _ = 1 to gray_batch do
             ignore (Otfgc.Gray_queue.pop q : int option)
           done))

  let test_gray_push_pop_legacy =
    let q = Legacy_gray.create () in
    Test.make ~name:"gray: push+pop x256 (legacy list)"
      (Staged.stage (fun () ->
           for i = 1 to gray_batch do
             Legacy_gray.push q i
           done;
           for _ = 1 to gray_batch do
             ignore (Legacy_gray.pop q : int option)
           done))

  (* card-object enumeration: 512 B cards packed with 32 B objects (16
     per card), holes punched so the walks see free blocks too.  The
     crossing map jumps straight to the card's first block; the legacy
     walk (the pre-rewrite Heap.objects_on_card) probes granule by
     granule and conses a list. *)
  let mk_card_heap () =
    let heap =
      Heap.create
        { Heap.initial_bytes = 256 * kb; max_bytes = 256 * kb; card_size = 512 }
    in
    let objs = ref [] in
    (try
       while true do
         match Heap.alloc heap ~size:32 ~n_slots:0 ~color:Color.C0 with
         | Some a -> objs := a :: !objs
         | None -> raise Exit
       done
     with Exit -> ());
    List.iteri (fun i a -> if i mod 5 = 0 then Heap.free heap a) !objs;
    heap

  let legacy_objects_on_card heap card =
    let s = Heap.space heap in
    let first, last = Card_table.card_bounds (Heap.cards heap) card in
    let last = Stdlib.min last (Space.capacity s) in
    if first >= Space.capacity s then []
    else begin
      let acc = ref [] in
      let a = ref first in
      while !a < last do
        if Space.is_block_start s !a then begin
          if Space.kind_of s !a = Space.Allocated then acc := !a :: !acc;
          a := !a + Space.block_size s !a
        end
        else a := !a + Layout.granule
      done;
      List.rev !acc
    end

  let test_card_objects =
    let heap = mk_card_heap () in
    let acc = ref 0 in
    let scratch = ref (Array.make 64 0) in
    Test.make ~name:"cards: objects on 64 cards (crossing map)"
      (Staged.stage (fun () ->
           acc := 0;
           for card = 0 to 63 do
             Heap.iter_objects_on_card heap ~scratch card (fun x ->
                 acc := !acc + x)
           done))

  let test_card_objects_legacy =
    let heap = mk_card_heap () in
    let acc = ref 0 in
    Test.make ~name:"cards: objects on 64 cards (legacy walk)"
      (Staged.stage (fun () ->
           acc := 0;
           for card = 0 to 63 do
             List.iter
               (fun x -> acc := !acc + x)
               (legacy_objects_on_card heap card)
           done))

  (* the generational write barrier outside a collection (MarkCard path) *)
  let test_barrier_idle =
    let rt =
      Runtime.create
        ~heap_config:{ Heap.initial_bytes = 256 * kb; max_bytes = 256 * kb; card_size = 16 }
        ~gc_config:(Gc_config.generational ()) ()
    in
    Runtime.set_fine_grained rt false;
    let st = Runtime.state rt in
    let heap = Runtime.heap rt in
    let x = Option.get (Heap.alloc heap ~size:32 ~n_slots:2 ~color:Color.C0) in
    let y = Option.get (Heap.alloc heap ~size:32 ~n_slots:0 ~color:Color.C0) in
    let m = Otfgc.Mutator.create ~id:0 ~name:"bench" ~n_regs:4 in
    Test.make ~name:"barrier: update (idle, card mark)"
      (Staged.stage (fun () -> Collector.update st m ~x ~i:0 ~y))

  (* telemetry overhead on the mutator hot loop: alloc + write barrier +
     free, with the observability layer left at its default (disabled;
     only the always-on flat counters tick) and fully enabled (counters,
     histograms and the event recorder armed).  The disabled variant is the
     zero-allocation guarantee the telemetry layer promises.  A third
     variant additionally arms the heap observatory: the barrier's cost
     charge crosses the cadence threshold every [sample_every] units and
     triggers a full census (heap walk + reachability oracle), so the
     measured delta is the amortised sampling overhead the acceptance
     bar caps at 10%. *)
  let mk_hot_loop ?(sample_every = 0) ~instrumented () =
    let rt =
      Runtime.create
        ~heap_config:{ Heap.initial_bytes = 256 * kb; max_bytes = 256 * kb; card_size = 16 }
        ~gc_config:(Gc_config.generational ()) ()
    in
    Runtime.set_fine_grained rt false;
    if instrumented then begin
      Runtime.arm_recorder rt;
      Otfgc.Telemetry.set_enabled (Runtime.telemetry rt) true
    end;
    if sample_every > 0 then
      Otfgc.Sampler.configure (Runtime.sampler rt) ~every:sample_every;
    let st = Runtime.state rt in
    let heap = Runtime.heap rt in
    let x = Option.get (Heap.alloc heap ~size:32 ~n_slots:2 ~color:Color.C0) in
    let y = Option.get (Heap.alloc heap ~size:32 ~n_slots:0 ~color:Color.C0) in
    let m = Otfgc.Mutator.create ~id:0 ~name:"bench" ~n_regs:4 in
    fun () ->
      let a = Option.get (Heap.alloc heap ~size:32 ~n_slots:2 ~color:Color.C0) in
      Collector.update st m ~x ~i:0 ~y;
      Heap.free heap a

  let test_hot_loop_telemetry_off =
    Test.make ~name:"telemetry: alloc+barrier+free (disabled)"
      (Staged.stage (mk_hot_loop ~instrumented:false ()))

  let test_hot_loop_telemetry_on =
    Test.make ~name:"telemetry: alloc+barrier+free (enabled)"
      (Staged.stage (mk_hot_loop ~instrumented:true ()))

  let test_hot_loop_sampling_on =
    Test.make ~name:"telemetry: alloc+barrier+free (sampling 64Ki)"
      (Staged.stage (mk_hot_loop ~sample_every:65536 ~instrumented:true ()))

  (* MarkGray on a clear object (shade + push + undo) *)
  let test_mark_gray =
    let rt =
      Runtime.create
        ~heap_config:{ Heap.initial_bytes = 256 * kb; max_bytes = 256 * kb; card_size = 16 }
        ~gc_config:(Gc_config.generational ()) ()
    in
    Runtime.set_fine_grained rt false;
    let st = Runtime.state rt in
    let heap = Runtime.heap rt in
    let x =
      Option.get (Heap.alloc heap ~size:32 ~n_slots:0 ~color:st.Otfgc.State.clear_color)
    in
    Test.make ~name:"collector: mark_gray + reset"
      (Staged.stage (fun () ->
           ignore
             (Collector.mark_gray st ~tel:st.Otfgc.State.telemetry ~sync:false
                x
               : bool);
           Heap.set_color heap x st.Otfgc.State.clear_color;
           ignore (Otfgc.Gray_queue.pop st.Otfgc.State.gray)))

  (* one full collection cycle over a small populated heap *)
  let test_full_cycle =
    Test.make ~name:"collector: full cycle, 64KB heap, ~800 objects"
      (Staged.stage (fun () ->
           let rt =
             Runtime.create
               ~heap_config:
                 { Heap.initial_bytes = 64 * kb; max_bytes = 64 * kb; card_size = 16 }
               ~gc_config:(Gc_config.generational ()) ()
           in
           Runtime.set_fine_grained rt false;
           let sched = Sched.create ~policy:Sched.round_robin () in
           ignore (Runtime.spawn_collector rt sched);
           let m = Runtime.new_mutator rt ~name:"m" () in
           ignore
             (Sched.spawn sched ~name:"m" (fun () ->
                  for _ = 1 to 800 do
                    let a = Runtime.alloc rt m ~size:32 ~n_slots:1 in
                    Otfgc.Mutator.set_reg m 0 a
                  done;
                  ignore (Runtime.collect_and_wait rt m ~full:true);
                  Runtime.retire_mutator rt m));
           Sched.run sched))

  (* The same full cycle over a 4 MB heap packed with 48 B objects, the
     sweep-bound regime: the sweep's per-block free and merge dominate.
     Packing the heap costs about as much as the cycle, and a Bechamel
     run cannot leave it out, so these two are timed by hand around
     [Sched.run] alone and reported per swept block (the median of
     [reps] fresh heaps).  No mutator runs: a waiting mutator spins
     through a fiber switch at each collector yield, which would swamp
     the sweep; the process that asks for the cycle parks instead.
     [live_every = 0] leaves nothing reachable, so every block is freed
     and merged into its predecessor; [live_every = 2] keeps every other
     block, chained from a global root, so every other block is freed
     and no merge happens. *)
  let sweep_heap = 4 * 1024 * kb

  let sweep_cycle_ns ~live_every =
    let rt =
      Runtime.create
        ~heap_config:{ Heap.initial_bytes = sweep_heap; max_bytes = sweep_heap; card_size = 16 }
        ~gc_config:(Gc_config.generational ()) ()
    in
    Runtime.set_fine_grained rt false;
    let heap = Runtime.heap rt in
    let color = Collector.allocation_color (Runtime.state rt) in
    let blocks = ref 0 and live = ref 0 and chain = ref Heap.nil in
    (try
       while true do
         match Heap.alloc heap ~size:48 ~n_slots:1 ~color with
         | None -> raise Exit
         | Some a ->
             if live_every > 0 && !blocks mod live_every = 0 then begin
               Heap.set_slot heap a 0 !chain;
               chain := a;
               incr live
             end;
             incr blocks
       done
     with Exit -> ());
    if !chain <> Heap.nil then Runtime.add_global rt !chain;
    let sched = Sched.create ~policy:Sched.round_robin () in
    ignore (Runtime.spawn_collector rt sched);
    ignore
      (Sched.spawn sched ~name:"gc" (fun () ->
           Runtime.request_collection rt ~full:true;
           Sched.wait_until (fun () -> Gc_stats.n_completed (Runtime.stats rt) > 0)));
    Gc.full_major ();
    let t0 = Otfgc_support.Monotonic_clock.now_ns () in
    Sched.run sched;
    let ns = Otfgc_support.Monotonic_clock.now_ns () - t0 in
    (* the cycle must have freed exactly the unreachable blocks *)
    assert (Heap.object_count heap = !live);
    (* the heap's tail left over by the 48 B packing is swept too *)
    float_of_int ns /. float_of_int (!blocks + 1)

  let sweep_micros =
    [
      ("collector: full cycle, 4MB heap of 48B, all dead", 0);
      ("collector: full cycle, 4MB heap of 48B, every other live", 2);
    ]

  let run_sweep_micros ~quick =
    let reps = if quick then 3 else 11 in
    List.iter
      (fun (name, live_every) ->
        let samples = Array.init reps (fun _ -> sweep_cycle_ns ~live_every) in
        Array.sort compare samples;
        Printf.printf "  %-45s %12.1f ns/swept block\n" ("otfgc " ^ name)
          samples.(reps / 2))
      sweep_micros

  (* word-level dirty-card scan over a mostly-clean table: 4 MB of heap
     at 16-byte cards = 256K mark bytes, 1 card in 1024 dirty — the
     Section 8.5.3 regime where scanning clean cards dominates *)
  let test_iter_dirty =
    let module Card_table = Otfgc_heap.Card_table in
    let tbl = Card_table.create ~card_size:16 ~max_heap_bytes:(4 * 1024 * kb) in
    let n = Card_table.n_cards tbl in
    let i = ref 0 in
    while !i < n do
      Card_table.mark_card tbl !i;
      i := !i + 1024
    done;
    let acc = ref 0 in
    Test.make ~name:"cards: iter_dirty 4MB/16B, 0.1% dirty"
      (Staged.stage (fun () ->
           acc := 0;
           Card_table.iter_dirty tbl (fun c -> acc := !acc + c)))

  let test_dirty_count =
    let module Card_table = Otfgc_heap.Card_table in
    let tbl = Card_table.create ~card_size:16 ~max_heap_bytes:(4 * 1024 * kb) in
    let n = Card_table.n_cards tbl in
    let i = ref 0 in
    while !i < n do
      Card_table.mark_card tbl !i;
      i := !i + 1024
    done;
    Test.make ~name:"cards: dirty_count 4MB/16B, 0.1% dirty"
      (Staged.stage (fun () -> ignore (Card_table.dirty_count tbl : int)))

  (* word-blitting page accounting over a multi-page span (sweep path) *)
  let test_touch_range =
    let module Layout = Otfgc_heap.Layout in
    let module Page_set = Otfgc_heap.Page_set in
    let tables = Layout.make_tables ~max_heap_bytes:(4 * 1024 * kb) ~card_size:16 in
    let ps = Page_set.create tables in
    let span = 64 * Layout.page_size in
    Test.make ~name:"pages: touch_range 64 pages"
      (Staged.stage (fun () -> Page_set.touch_range ps Layout.page_size span))

  (* The per-cycle floating-garbage census (mark from the roots, then
     stream the unmarked objects) over a fixed 1 MB heap of 32 B objects
     with two slots: every fourth one is garbage, the others form a
     binary tree under one register.  [run] divides by the live
     objects. *)
  let census_live, test_census =
    let heap =
      Heap.create
        { Heap.initial_bytes = 1024 * kb; max_bytes = 1024 * kb; card_size = 16 }
    in
    let st = State.create heap (Gc_config.generational ()) in
    let m = Otfgc.Mutator.create ~id:0 ~name:"bench" ~n_regs:1 in
    State.register_mutator st m;
    let live = Array.make (1024 * kb / 32) Heap.nil in
    let n_live = ref 0 and n_alloc = ref 0 in
    (try
       while true do
         match Heap.alloc heap ~size:32 ~n_slots:2 ~color:Color.C0 with
         | None -> raise Exit
         | Some a ->
             if !n_alloc mod 4 <> 3 then begin
               let k = !n_live in
               if k = 0 then Otfgc.Mutator.set_reg m 0 a
               else Heap.set_slot heap live.((k - 1) / 2) ((k - 1) mod 2) a;
               live.(k) <- a;
               incr n_live
             end;
             incr n_alloc
       done
     with Exit -> ());
    ( Oracle.live_count st,
      Test.make ~name:"oracle: census"
        (Staged.stage (fun () -> Oracle.iter_garbage st ignore)) )

  (* Scheduler steps.  A scheduler cannot outlive one [Sched.run], so each
     run of these micros is a whole run of [sched_batch] steps of a single
     process; [run] divides their estimates down to ns per step.  The
     set-up is a few hundred ns, under 1 ns per step. *)
  let sched_batch = 1024

  let sched_micro ~name body =
    Test.make ~name
      (Staged.stage (fun () ->
           let s = Sched.create ~policy:Sched.round_robin () in
           ignore (Sched.spawn s ~name:"p" body);
           Sched.run s))

  (* suspend and resume the process at every step *)
  let test_sched_yield =
    sched_micro ~name:"sched: yield round trip" (fun () ->
        for _ = 2 to sched_batch do
          Sched.yield ()
        done)

  (* one suspension, then steps that only decrement the nap counter *)
  let test_sched_nap =
    sched_micro ~name:"sched: nap step" (fun () -> Sched.yield_n (sched_batch - 1))

  (* one suspension, then steps that only call the parked predicate *)
  let test_sched_parked =
    sched_micro ~name:"sched: parked poll (false predicate)" (fun () ->
        let polls = ref 0 in
        Sched.wait_until (fun () ->
            incr polls;
            !polls >= sched_batch))

  (* two processes under [Random]: a daemon parked on a false predicate
     and a worker napping through [sched_batch - 1] of its own picks; the
     seed is fixed, so every run takes the same number of steps *)
  let random_noop () =
    let s = Sched.create ~policy:(Sched.random_policy (Rng.make 1)) () in
    let stop = ref false in
    ignore
      (Sched.spawn s ~daemon:true ~name:"parked" (fun () ->
           Sched.wait_until (fun () -> !stop)));
    ignore
      (Sched.spawn s ~name:"napper" (fun () ->
           Sched.yield_n (sched_batch - 1);
           stop := true));
    Sched.run s;
    Sched.steps s

  let random_noop_steps = random_noop ()

  let test_sched_random_noop =
    Test.make ~name:"sched: random no-op step (2 procs)"
      (Staged.stage (fun () -> ignore (random_noop () : int)))

  (* test name, scheduling steps per run *)
  let per_step =
    List.map
      (fun (t, steps) -> ("otfgc " ^ Test.name t, steps))
      [
        (test_sched_yield, sched_batch);
        (test_sched_nap, sched_batch);
        (test_sched_parked, sched_batch);
        (test_sched_random_noop, random_noop_steps);
      ]

  let tests =
    Test.make_grouped ~name:"otfgc" ~fmt:"%s %s"
      [
        test_alloc_free;
        test_freelist_pop_exact;
        test_freelist_pop_exact_legacy;
        test_freelist_split_stale;
        test_freelist_split_stale_legacy;
        test_freelist_large_miss;
        test_freelist_large_miss_legacy;
        test_gray_push_pop;
        test_gray_push_pop_legacy;
        test_card_objects;
        test_card_objects_legacy;
        test_barrier_idle;
        test_hot_loop_telemetry_off;
        test_hot_loop_telemetry_on;
        test_hot_loop_sampling_on;
        test_mark_gray;
        test_full_cycle;
        test_iter_dirty;
        test_dirty_count;
        test_touch_range;
        test_census;
        test_sched_yield;
        test_sched_nap;
        test_sched_parked;
        test_sched_random_noop;
      ]

  let run ?(quick = false) () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      if quick then
        Benchmark.cfg ~limit:200 ~quota:(Time.second 0.05) ~stabilize:false ()
      else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
    in
    let raw = Benchmark.all cfg instances tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    print_endline "Micro-benchmarks (monotonic clock, ns/run):";
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] when List.mem_assoc name per_step ->
            Printf.printf "  %-45s %12.1f ns/step\n" name
              (est /. float_of_int (List.assoc name per_step))
        | Some [ est ] when name = "otfgc " ^ Test.name test_census ->
            Printf.printf "  %-45s %12.1f ns/live object\n" name
              (est /. float_of_int census_live)
        | Some [ est ] -> Printf.printf "  %-45s %12.1f ns\n" name est
        | _ -> Printf.printf "  %-45s (no estimate)\n" name)
      results;
    run_sweep_micros ~quick;
    print_newline ()
end

(* ------------------------------------------------------------------ *)
(* Perf-trajectory grid and regression gate                            *)
(* ------------------------------------------------------------------ *)

module Traj = struct
  module Heap = Otfgc_heap.Heap
  module Gc_config = Otfgc.Gc_config
  module Profile = Otfgc_workloads.Profile
  module Driver = Otfgc_workloads.Driver
  module Trajectory = Otfgc_metrics.Trajectory
  module Dashboard = Otfgc_metrics.Dashboard
  module Json = Otfgc_support.Json

  let seed = 42
  let young = 512 * 1024

  (* The pinned scenario grid — the same eight configurations the test
     suite's digest guard pins, so the gate and the guard watch the same
     behaviours: both workload families, every collector mode, and the
     young-trigger and card-size sensitivities. *)
  let grid =
    [
      ("jack-gen", Profile.jack, Gc_config.generational ~young_bytes:young (), 16);
      ( "jack-nongen",
        Profile.jack,
        { Gc_config.non_generational with Gc_config.young_bytes = young },
        16 );
      ( "jack-aging2",
        Profile.jack,
        Gc_config.aging ~young_bytes:young ~oldest_age:2 (),
        16 );
      ("jack-adaptive", Profile.jack, Gc_config.adaptive ~young_bytes:young (), 16);
      ( "jack-young256k",
        Profile.jack,
        Gc_config.generational ~young_bytes:(256 * 1024) (),
        16 );
      ( "anagram-gen",
        Profile.anagram,
        Gc_config.generational ~young_bytes:young (),
        16 );
      ( "anagram-nongen",
        Profile.anagram,
        { Gc_config.non_generational with Gc_config.young_bytes = young },
        16 );
      ( "anagram-card64",
        Profile.anagram,
        Gc_config.generational ~young_bytes:young (),
        64 );
    ]

  let run_scenario ~scale (name, profile, gc, card) =
    let heap = { Driver.default_heap with Heap.card_size = card } in
    let t0 = Unix.gettimeofday () in
    (* always a fresh simulation — wall_ms must measure this machine,
       and the gate must measure this build, so no cache on either axis *)
    let r, rt = Driver.run_rt ~heap ~seed ~scale ~gc profile in
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    Printf.printf "  %-16s %8.0f ms wall\n%!" name wall_ms;
    (* schema v2: the gated set plus the per-phase work split and the
       headline telemetry counters, for regression attribution *)
    Trajectory.scenario_of_runtime ~name ~wall_ms r rt

  (* The baseline is the highest-numbered committed BENCH_NNNN.json,
     found by walking from the working directory up toward the
     filesystem root (dune runs executables from _build/default). *)
  let bench_number name =
    if
      String.length name > String.length "BENCH_.json"
      && String.sub name 0 6 = "BENCH_"
      && Filename.check_suffix name ".json"
    then int_of_string_opt (String.sub name 6 (String.length name - 11))
    else None

  let find_baseline () =
    let best_in dir =
      Array.fold_left
        (fun acc name ->
          match bench_number name with
          | Some k -> (
              match acc with
              | Some (k0, _) when k0 >= k -> acc
              | _ -> Some (k, Filename.concat dir name))
          | None -> acc)
        None
        (try Sys.readdir dir with Sys_error _ -> [||])
    in
    let rec up dir =
      match best_in dir with
      | Some (_, path) -> Some path
      | None ->
          let parent = Filename.dirname dir in
          if parent = dir then None else up parent
    in
    up (Sys.getcwd ())

  let load path =
    match
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      contents
    with
    | exception Sys_error e -> Error e
    | contents -> (
    match Json.of_string contents with
    | Error e -> Error (Printf.sprintf "%s: JSON parse error: %s" path e)
    | Ok j -> (
        match Trajectory.of_json j with
        | Error e -> Error (Printf.sprintf "%s: %s" path e)
        | Ok t -> Ok t))

  let write path t =
    let oc = open_out path in
    output_string oc (Json.to_string (Trajectory.to_json t));
    output_char oc '\n';
    close_out oc

  (* Every committed BENCH_NNNN.json, ascending, from the first ancestor
     directory that holds any — the dashboard's run axis. *)
  let committed_benches () =
    let rec up dir =
      let found =
        Array.fold_left
          (fun acc name ->
            match bench_number name with
            | Some k -> (k, name) :: acc
            | None -> acc)
          []
          (try Sys.readdir dir with Sys_error _ -> [||])
      in
      if found <> [] then Some (dir, List.sort compare found)
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else up parent
    in
    up (Sys.getcwd ())

  (* Render committed history + the current run into a self-contained
     HTML/SVG dashboard; the result is validated before it is written,
     so a malformed page fails the build, not the later reader. *)
  let write_report ~path current =
    let committed =
      match committed_benches () with
      | None -> []
      | Some (dir, entries) ->
          List.filter_map
            (fun (_, name) ->
              match load (Filename.concat dir name) with
              | Ok t -> Some (Filename.remove_extension name, t)
              | Error e ->
                  Printf.eprintf "warning: dashboard skipping %s: %s\n" name e;
                  None)
            entries
    in
    let runs = committed @ [ ("current", current) ] in
    match Dashboard.render ~runs with
    | Error e ->
        Printf.eprintf "dashboard: %s\n" e;
        1
    | Ok html -> (
        match Dashboard.validate html with
        | Error e ->
            Printf.eprintf "dashboard failed self-validation: %s\n" e;
            1
        | Ok () ->
            let oc = open_out path in
            output_string oc html;
            close_out oc;
            Printf.printf
              "trajectory dashboard written to %s (%d runs, %d committed)\n"
              path (List.length runs)
              (List.length committed);
            0)

  (* Exit status: 0 = gate passed or (re)seeded, 1 = regression or a
     hard --against/--report failure. *)
  let run ~quick ~jobs ~out ~threshold ~against ~report =
    let scale = if quick then 0.05 else 0.2 in
    Printf.printf
      "Trajectory grid: %d scenarios at scale %.2f, seed %d, %d job(s) \
       (gated metrics are simulated and deterministic; wall times are \
       informational).\n%!"
      (List.length grid) scale seed jobs;
    (* Each scenario is an independent deterministic simulation, so the
       grid fans out across a domain pool; wall_ms measures the scenario's
       own domain, which is as meaningful as the sequential number on a
       shared CI machine (both are informational, never gated). *)
    let scenarios =
      Otfgc_support.Pool.with_pool ~jobs (fun pool ->
          Otfgc_support.Pool.map pool (run_scenario ~scale)
            (Array.of_list grid))
    in
    let current =
      Trajectory.make ~scale ~seed ~quick (Array.to_list scenarios)
    in
    let seeded verdict =
      write out current;
      Printf.printf "%s\ntrajectory written to %s — commit it to arm the gate\n"
        verdict out;
      0
    in
    let gate baseline ~path =
      match Trajectory.diff ~threshold_pct:threshold ~baseline ~current () with
      | Error e -> Error (Printf.sprintf "baseline %s not comparable: %s" path e)
      | Ok regs ->
          print_newline ();
          print_string (Trajectory.render_diff ~baseline ~current regs);
          if regs <> [] then
            (* rank the ungated phase/counter metrics that moved most —
               the "why" behind the aggregate that tripped the gate *)
            print_string
              (Trajectory.render_attribution
                 (Trajectory.attribution ~baseline ~current));
          write out current;
          Printf.printf "trajectory written to %s (baseline: %s)\n" out path;
          Ok (if regs = [] then 0 else 1)
    in
    let code =
      match against with
      | Some path -> (
          (* an explicit baseline must gate: unreadable or incomparable
             is a hard failure, never a silent reseed *)
          match load path with
          | Error e ->
              Printf.eprintf "--against %s: %s\n" path e;
              1
          | Ok baseline -> (
              match gate baseline ~path with
              | Ok code -> code
              | Error e ->
                  Printf.eprintf "--against %s\n" e;
                  1))
      | None -> (
          match find_baseline () with
          | None -> seeded "no committed BENCH_*.json baseline found"
          | Some path -> (
              match load path with
              | Error e -> seeded ("baseline unreadable (" ^ e ^ ")")
              | Ok baseline -> (
                  match gate baseline ~path with
                  | Ok code -> code
                  | Error e -> seeded e)))
    in
    match report with
    | None -> code
    | Some path ->
        let rc = write_report ~path current in
        if code <> 0 then code else rc
end

(* ------------------------------------------------------------------ *)
(* Real-domains speedup sweep                                          *)
(* ------------------------------------------------------------------ *)

module Speedup = struct
  module Gc_config = Otfgc.Gc_config
  module Runtime = Otfgc.Runtime
  module Telemetry = Otfgc.Telemetry
  module Status = Otfgc.Status
  module Histogram = Otfgc_support.Histogram
  module Profile = Otfgc_workloads.Profile
  module Driver = Otfgc_workloads.Driver
  module Substrate = Otfgc_sched.Substrate
  module Trajectory = Otfgc_metrics.Trajectory
  module Run_result = Otfgc_metrics.Run_result
  module Json = Otfgc_support.Json

  let seed = 42

  (* Mutator counts swept: 1, 2, 4, ... up to the machine, capped at 8
     (the paper's interesting range is a 4-way SMP).  Always at least
     1 and 2, so the curve has a slope even on small CI runners. *)
  let mutator_counts () =
    let cores = Domain.recommended_domain_count () in
    let rec up acc m = if m > Stdlib.max 2 (Stdlib.min 8 cores) then List.rev acc else up (m :: acc) (m * 2) in
    up [] 1

  let p99_us h = Histogram.percentile h 99.0
  let pct h p = Histogram.percentile h p

  (* One sweep point: the raytracer workload on [m] real domains at fixed
     TOTAL allocation volume (per-thread scale = base / m), so the curve
     answers "does adding mutator domains shorten the wall clock for the
     same total work while the collector runs concurrently?".
     [gc_workers] widens the collection crew (collector domain plus
     helpers) — the worker-scaling sweep varies it at fixed m. *)
  let run_point ~scale ~gc_workers ~slo m =
    let cores = Domain.recommended_domain_count () in
    (* m mutator domains + the collector domain + (gc_workers - 1)
       helpers all want a core at once during a cycle. *)
    if m + gc_workers > cores then
      Printf.printf
        "  warning: m=%d mutators + %d collector worker(s) oversubscribe \
         the %d visible core(s); wall-clock numbers will understate \
         concurrency\n%!"
        m gc_workers cores;
    let profile = Profile.raytracer ~threads:m in
    let t0 = Unix.gettimeofday () in
    let result, rt =
      Driver.run_rt ~seed ~scale:(scale /. float_of_int m)
        ~substrate:Substrate.Domains ~gc_workers
        ~instrument:(fun rt -> Telemetry.set_enabled (Runtime.telemetry rt) true)
        ~gc:(Gc_config.generational ()) profile
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let tel = Runtime.telemetry rt in
    let hs =
      (* the three handshakes share one merged latency distribution *)
      let h = Histogram.create () in
      List.iter
        (fun s -> Histogram.add_into ~src:(Telemetry.handshake_latency tel s) ~dst:h)
        [ Status.Sync1; Status.Sync2; Status.Async ];
      h
    in
    let throughput_mb_s =
      float_of_int result.Run_result.total_alloc_bytes
      /. (1024. *. 1024.) /. wall_s
    in
    let slo_col =
      (* the SLO column: tail wall-clock latencies the report gates on *)
      if slo then
        Printf.sprintf
          "  SLO[hs p50/p90/p99.9 %d/%d/%d us, stall p90/p99.9 %d/%d us]"
          (pct hs 50.) (pct hs 90.) (pct hs 99.9)
          (pct (Telemetry.stall_latency tel) 90.)
          (pct (Telemetry.stall_latency tel) 99.9)
      else ""
    in
    Printf.printf
      "  m=%d w=%d  %7.1f MB alloc  %6.2f s wall  %8.2f MB/s  p99 handshake \
       %d us  p99 stall %d us  %d steal(s)%s\n%!"
      m gc_workers
      (float_of_int result.Run_result.total_alloc_bytes /. (1024. *. 1024.))
      wall_s throughput_mb_s (p99_us hs)
      (p99_us (Telemetry.stall_latency tel))
      (Telemetry.steals tel) slo_col;
    let slo_metrics =
      if slo then
        [
          ("slo_p50_handshake_us", float_of_int (pct hs 50.));
          ("slo_p90_handshake_us", float_of_int (pct hs 90.));
          ("slo_p999_handshake_us", float_of_int (pct hs 99.9));
          ("slo_p50_stall_us",
           float_of_int (pct (Telemetry.stall_latency tel) 50.));
          ("slo_p90_stall_us",
           float_of_int (pct (Telemetry.stall_latency tel) 90.));
          ("slo_p999_stall_us",
           float_of_int (pct (Telemetry.stall_latency tel) 99.9));
        ]
      else []
    in
    {
      Trajectory.name = Printf.sprintf "speedup-m%d-w%d" m gc_workers;
      wall_ms = wall_s *. 1000.;
      metrics =
        [
          ("mutators", float_of_int m);
          ("gc_workers", float_of_int gc_workers);
          ("cores", float_of_int cores);
          ("throughput_mb_s", throughput_mb_s);
          ("total_alloc_bytes", float_of_int result.Run_result.total_alloc_bytes);
          ("p99_handshake_us", float_of_int (p99_us hs));
          ("p99_stall_us", float_of_int (p99_us (Telemetry.stall_latency tel)));
          ("steals", float_of_int (Telemetry.steals tel));
          ("steal_failures", float_of_int (Telemetry.steal_failures tel));
          ("lock_waits", float_of_int (Telemetry.lock_waits_total tel));
          ("n_cycles",
           float_of_int
             (result.Run_result.n_partial + result.Run_result.n_full
            + result.Run_result.n_non_gen));
        ]
        @ slo_metrics;
    }

  (* Wall-clock speedup curve on real domains.  Everything here is
     machine-dependent and NEVER gated: the output goes to its own JSON
     (CI uploads it as an artifact for trend-reading), reusing the
     trajectory schema so existing tooling parses it.  [quick] shrinks
     the volume for smoke runs.  [gc_workers] > 1 turns the sweep into
     the worker-scaling curve (EXPERIMENTS.md): same mutator counts, a
     parallel collection crew per point. *)
  let run ~quick ~gc_workers ~slo ~out =
    let scale = if quick then 0.05 else 0.5 in
    let counts = mutator_counts () in
    let cores = Domain.recommended_domain_count () in
    Printf.printf
      "Speedup sweep: raytracer on real domains, fixed total work (scale \
       %.2f), m in {%s}, gc workers %d, %d core(s) visible.\nWall-clock \
       numbers are machine-dependent — recorded, never gated.\n%!"
      scale
      (String.concat ", " (List.map string_of_int counts))
      gc_workers cores;
    let scenarios = List.map (run_point ~scale ~gc_workers ~slo) counts in
    let t = Trajectory.make ~scale ~seed ~quick scenarios in
    let oc = open_out out in
    output_string oc (Json.to_string (Trajectory.to_json t));
    output_char oc '\n';
    close_out oc;
    Printf.printf "speedup curve written to %s\n" out;
    0
end

(* ------------------------------------------------------------------ *)
(* Figure regeneration                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let scale =
    let rec find = function
      | "--scale" :: v :: _ -> float_of_string v
      | _ :: rest -> find rest
      | [] -> if quick then 0.15 else 0.5
    in
    find args
  in
  let jobs =
    let rec find = function
      | "--jobs" :: v :: _ -> (
          match int_of_string_opt v with
          | Some n when n >= 1 -> n
          | _ ->
              Printf.eprintf "--jobs wants a positive integer, got %S\n" v;
              exit 2)
      | _ :: rest -> find rest
      | [] -> Otfgc_support.Pool.default_jobs ()
    in
    find args
  in
  let cache_dir = if List.mem "--no-cache" args then None else Some "_cache" in
  let fig_ids =
    List.filter
      (fun a -> String.length a >= 3 && String.sub a 0 3 = "fig")
      args
  in
  let micro_only = List.mem "micro" args in
  if List.mem "trajectory" args then begin
    let out =
      let rec find = function
        | "--out" :: v :: _ -> v
        | _ :: rest -> find rest
        | [] -> "BENCH_0010.json"
      in
      find args
    in
    let against =
      let rec find = function
        | "--against" :: v :: _ -> Some v
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    let report =
      let rec find = function
        | "--report" :: v :: _ -> Some v
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    let threshold =
      let rec find = function
        | "--threshold" :: v :: _ -> (
            match float_of_string_opt v with
            | Some f when f >= 0. -> f
            | _ ->
                Printf.eprintf "--threshold wants a percentage, got %S\n" v;
                exit 2)
        | _ :: rest -> find rest
        | [] -> 5.
      in
      find args
    in
    exit (Traj.run ~quick ~jobs ~out ~threshold ~against ~report)
  end
  else if List.mem "speedup" args then begin
    let out =
      let rec find = function
        | "--out" :: v :: _ -> v
        | _ :: rest -> find rest
        | [] -> "speedup.json"
      in
      find args
    in
    let gc_workers =
      let rec find = function
        | "--gc-workers" :: v :: _ -> (
            match int_of_string_opt v with
            | Some n when n >= 1 -> n
            | _ ->
                Printf.eprintf "--gc-workers wants a positive integer, got %S\n" v;
                exit 2)
        | _ :: rest -> find rest
        | [] -> 1
      in
      find args
    in
    exit (Speedup.run ~quick ~gc_workers ~slo:(List.mem "--slo" args) ~out)
  end
  else if micro_only then Micro.run ~quick ()
  else begin
    let lab_main = Lab.create ~scale ~jobs ~cache_dir () in
    let lab_sweep = Lab.create ~scale:(scale /. 2.) ~jobs ~cache_dir () in
    let entries =
      if fig_ids = [] then Registry.all
      else
        List.filter_map
          (fun id ->
            match Registry.find id with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown figure id %s (fig7..fig23)\n" id;
                None)
          fig_ids
    in
    Printf.printf
      "Reproducing %d figure(s) at scale %.2f (sweeps %.2f) on %d domain(s); \
       workloads and heaps are 1/8 of the paper's, so compare shapes, not \
       absolutes.\n\n%!"
      (List.length entries) scale (scale /. 2.) jobs;
    (* One batch per lab: every selected figure's grid, deduplicated and
       fanned out across the domain pool before any table rendering. *)
    let batch lab heavy =
      let cfgs =
        List.concat_map
          (fun e -> if e.Registry.heavy = heavy then e.Registry.configs else [])
          entries
      in
      if cfgs <> [] then begin
        let t0 = Unix.gettimeofday () in
        Lab.prefetch lab cfgs;
        let c = Lab.counters lab in
        Printf.printf
          "[%s grids: %d configs -> %d simulated, %d from disk cache in %.1fs]\n%!"
          (if heavy then "sweep" else "headline")
          (List.length cfgs) c.Lab.computed c.Lab.disk_hits
          (Unix.gettimeofday () -. t0)
      end
    in
    batch lab_main false;
    batch lab_sweep true;
    print_newline ();
    List.iter
      (fun e ->
        let t0 = Unix.gettimeofday () in
        let lab = if e.Registry.heavy then lab_sweep else lab_main in
        let table = e.Registry.run lab in
        Textable.print table;
        Printf.printf "[%s done in %.1fs]\n\n%!" e.Registry.id
          (Unix.gettimeofday () -. t0))
      entries;
    let totals =
      let a = Lab.counters lab_main and b = Lab.counters lab_sweep in
      Lab.
        {
          computed = a.computed + b.computed;
          mem_hits = a.mem_hits + b.mem_hits;
          disk_hits = a.disk_hits + b.disk_hits;
        }
    in
    Printf.printf
      "cache: %d runs simulated, %d memo hits, %d disk hits%s\n%!"
      totals.Lab.computed totals.Lab.mem_hits totals.Lab.disk_hits
      (match cache_dir with
      | Some d -> Printf.sprintf " (persisted under %s/)" d
      | None -> "");
    if fig_ids = [] && not quick then Micro.run ()
  end
