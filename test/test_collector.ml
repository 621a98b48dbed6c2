(* End-to-end tests of the three collectors: safety (no live object is ever
   freed), completeness (garbage is reclaimed), promotion, the yellow
   color, the color toggle, inter-generational pointers via card marking,
   aging, and triggering. *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Color = Otfgc_heap.Color
module Card_table = Otfgc_heap.Card_table
module Age_table = Otfgc_heap.Age_table
module Sched = Otfgc_sched.Sched
module Rng = Otfgc_support.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let kb = 1024

let heap_cfg ?(initial = 16 * kb) ?(max = 64 * kb) ?(card = 16) () =
  { Heap.initial_bytes = initial; max_bytes = max; card_size = card }

(* Run [body] as a single mutator alongside a collector daemon.  The body
   receives the runtime and its mutator handle. *)
let with_runtime ?heap:(hc = heap_cfg ()) ?(gc = Gc_config.generational ())
    ?(seed = 1) body =
  let rt = Runtime.create ~heap_config:hc ~gc_config:gc () in
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.make seed)) () in
  ignore (Runtime.spawn_collector rt sched);
  let m = Runtime.new_mutator rt ~name:"m0" () in
  ignore
    (Sched.spawn sched ~name:"m0" (fun () ->
         body rt m;
         Runtime.retire_mutator rt m));
  Sched.run ~max_steps:50_000_000 sched;
  rt

(* Allocate a list node [next; payload slots] and link it in front.

   Rooting discipline: every reference that must survive a scheduling point
   has to sit in a mutator register or stack slot — OCaml locals are not
   roots (they model values the compiled code would keep in machine
   registers, which *are* the root set; here the Mutator regs play that
   role).  So the new node is parked in a scratch register before the
   store, and the old head stays in [reg] until the link is written. *)
let scratch = 15

let push_node rt m ~size reg =
  let node = Runtime.alloc rt m ~size ~n_slots:2 in
  Mutator.set_reg m scratch node;
  let old = Mutator.get_reg m reg in
  if old <> Heap.nil then Runtime.store rt m ~x:node ~i:0 ~y:old;
  Mutator.set_reg m reg node;
  Mutator.clear_reg m scratch;
  node

(* Cooperate until the collector is idle and nothing is pending, so
   triggered cycles finish before the mutator exits. *)
let drain rt m =
  let st = Runtime.state rt in
  while
    Atomic.get st.State.collecting
    || Atomic.get st.State.gc_request <> State.No_request
  do
    Runtime.cooperate rt m;
    Sched.yield ()
  done

let list_length rt m reg =
  let rec go acc x =
    if x = Heap.nil then acc else go (acc + 1) (Runtime.load rt m ~x ~i:0)
  in
  go 0 (Mutator.get_reg m reg)

(* ------------------------------------------------------------------ *)
(* Basic collection behaviour, one test per collector mode             *)
(* ------------------------------------------------------------------ *)

let churn_and_check gc () =
  (* Allocate far more than the heap holds; everything but a small live
     list dies.  The run can only complete if collection reclaims. *)
  let live_every = 50 in
  let rt =
    with_runtime ~gc (fun rt m ->
        for i = 1 to 4000 do
          if i mod live_every = 0 then ignore (push_node rt m ~size:64 0)
          else begin
            (* garbage node, referenced only transiently from a register *)
            let g = Runtime.alloc rt m ~size:64 ~n_slots:2 in
            Mutator.set_reg m 1 g;
            Runtime.store rt m ~x:g ~i:1 ~y:g;
            Mutator.clear_reg m 1
          end
        done;
        check_int "live list intact" (4000 / live_every) (list_length rt m 0))
  in
  let st = Runtime.state rt in
  check "some collections ran" true (Gc_stats.cycles (Runtime.stats rt) <> []);
  check "heap invariants hold" true
    (Heap.check ~check_slots:false (Runtime.heap rt) = Ok ());
  check "oracle safety" true (Oracle.check_safety st = Ok ());
  (* total allocation was ~4000*64 = 256 KB against a 64 KB max heap *)
  check "reclamation happened" true
    (Heap.allocated_bytes (Runtime.heap rt) < 64 * kb)

let test_churn_generational = churn_and_check (Gc_config.generational ())
let test_churn_non_generational = churn_and_check Gc_config.non_generational
let test_churn_aging = churn_and_check (Gc_config.aging ~oldest_age:4 ())

(* ------------------------------------------------------------------ *)
(* Promotion and generations                                           *)
(* ------------------------------------------------------------------ *)

let test_simple_promotion_blackens_survivors () =
  let rt =
    with_runtime (fun rt m ->
        let a = Runtime.alloc rt m ~size:32 ~n_slots:1 in
        Mutator.set_reg m 0 a;
        let st = Runtime.state rt in
        let cycle = Runtime.collect_and_wait rt m ~full:false in
        check "partial cycle" true (cycle.Gc_stats.kind = Gc_stats.Partial);
        check "survivor promoted to black" true
          (Color.equal (Heap.color st.State.heap a) Color.Black))
  in
  ignore rt

let test_partial_does_not_reclaim_old_garbage () =
  let rt =
    with_runtime (fun rt m ->
        let a = Runtime.alloc rt m ~size:32 ~n_slots:1 in
        Mutator.set_reg m 0 a;
        (* promote a *)
        ignore (Runtime.collect_and_wait rt m ~full:false);
        (* drop it: now it is old garbage *)
        Mutator.clear_reg m 0;
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check "old garbage survives partials" true (Heap.is_object (Runtime.heap rt) a);
        ignore (Runtime.collect_and_wait rt m ~full:true);
        check "full collection reclaims it" false (Heap.is_object (Runtime.heap rt) a))
  in
  ignore rt

let test_young_garbage_freed_by_partial () =
  let rt =
    with_runtime (fun rt m ->
        let g = Runtime.alloc rt m ~size:32 ~n_slots:0 in
        (* g is garbage immediately (never stored anywhere) *)
        let cycle = Runtime.collect_and_wait rt m ~full:false in
        ignore m;
        check "young garbage reclaimed by partial" false
          (Heap.is_object (Runtime.heap rt) g);
        check "freed counted" true (cycle.Gc_stats.objects_freed >= 1))
  in
  ignore rt

let test_intergen_pointer_keeps_young_alive () =
  let rt =
    with_runtime (fun rt m ->
        let old = Runtime.alloc rt m ~size:32 ~n_slots:1 in
        Mutator.set_reg m 0 old;
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check "old is black" true
          (Color.equal (Heap.color (Runtime.heap rt) old) Color.Black);
        (* create young object referenced ONLY from the old object *)
        let young = Runtime.alloc rt m ~size:32 ~n_slots:0 in
        Runtime.store rt m ~x:old ~i:0 ~y:young;
        (* the store dirtied old's card; drop all register refs to young *)
        let cycle = Runtime.collect_and_wait rt m ~full:false in
        check "dirty card seeded the trace" true
          (cycle.Gc_stats.intergen_scanned >= 1);
        check "young object survived via inter-gen pointer" true
          (Heap.is_object (Runtime.heap rt) young);
        check "young object promoted" true
          (Color.equal (Heap.color (Runtime.heap rt) young) Color.Black))
  in
  ignore rt

let test_card_cleared_after_scan () =
  let rt =
    with_runtime (fun rt m ->
        let old = Runtime.alloc rt m ~size:32 ~n_slots:1 in
        Mutator.set_reg m 0 old;
        ignore (Runtime.collect_and_wait rt m ~full:false);
        let young = Runtime.alloc rt m ~size:32 ~n_slots:0 in
        Runtime.store rt m ~x:old ~i:0 ~y:young;
        let cards = Heap.cards (Runtime.heap rt) in
        let c = Card_table.card_of_addr cards old in
        check "card dirty after store" true (Card_table.is_dirty cards c);
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check "card clean after simple-mode scan" false (Card_table.is_dirty cards c))
  in
  ignore rt

let test_color_toggle_swaps () =
  let rt =
    with_runtime (fun rt m ->
        ignore m;
        let st = Runtime.state rt in
        let colors () =
          let w = State.phase st in
          (State.allocation_color_of w, State.clear_color_of w)
        in
        let a0, c0 = colors () in
        ignore (Runtime.collect_and_wait rt m ~full:false);
        let a1, c1 = colors () in
        check "allocation color toggled" true (Color.equal a1 c0);
        check "clear color toggled" true (Color.equal c1 a0))
  in
  ignore rt

let test_full_collection_demotes_then_reclaims_everything_dead () =
  let rt =
    with_runtime (fun rt m ->
        (* build a live list and a lot of promoted garbage *)
        for _ = 1 to 10 do
          ignore (push_node rt m ~size:32 0)
        done;
        ignore (Runtime.collect_and_wait rt m ~full:false);
        (* all ten promoted; drop the whole list *)
        Mutator.clear_reg m 0;
        ignore (Runtime.collect_and_wait rt m ~full:true);
        check_int "only globals remain" 0 (Heap.object_count (Runtime.heap rt)))
  in
  ignore rt

(* ------------------------------------------------------------------ *)
(* Aging                                                               *)
(* ------------------------------------------------------------------ *)

let test_aging_tenure_threshold () =
  (* paper threshold 4 = tenured after surviving 3 collections *)
  let rt =
    with_runtime ~gc:(Gc_config.aging ~oldest_age:4 ()) (fun rt m ->
        let heap = Runtime.heap rt in
        let a = Runtime.alloc rt m ~size:32 ~n_slots:0 in
        Mutator.set_reg m 0 a;
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check "still young after 1 survival" false
          (Color.equal (Heap.color heap a) Color.Black);
        check_int "age 1" 1 (Age_table.get (Heap.ages heap) a);
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check "still young after 2 survivals" false
          (Color.equal (Heap.color heap a) Color.Black);
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check "tenured after 3 survivals" true
          (Color.equal (Heap.color heap a) Color.Black);
        (* age stops advancing once old *)
        let age_now = Age_table.get (Heap.ages heap) a in
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check_int "age frozen" age_now (Age_table.get (Heap.ages heap) a))
  in
  ignore rt

let test_aging_young_garbage_freed_quickly () =
  let rt =
    with_runtime ~gc:(Gc_config.aging ~oldest_age:4 ()) (fun rt m ->
        let g = Runtime.alloc rt m ~size:32 ~n_slots:0 in
        ignore m;
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check "young garbage freed by first partial" false
          (Heap.is_object (Runtime.heap rt) g))
  in
  ignore rt

let test_aging_card_stays_dirty_while_target_young () =
  let rt =
    with_runtime ~gc:(Gc_config.aging ~oldest_age:2 ()) (fun rt m ->
        let heap = Runtime.heap rt in
        let old = Runtime.alloc rt m ~size:32 ~n_slots:1 in
        Mutator.set_reg m 0 old;
        (* tenure old: threshold 2 => old after surviving 1 collection *)
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check "old tenured" true (Color.equal (Heap.color heap old) Color.Black);
        (* young target referenced only from old *)
        let young = Runtime.alloc rt m ~size:32 ~n_slots:0 in
        Runtime.store rt m ~x:old ~i:0 ~y:young;
        Mutator.set_reg m 1 young;
        let cards = Heap.cards heap in
        let c = Card_table.card_of_addr cards old in
        (* first partial: young survives (register+card), not yet tenured?
           With threshold 2 it tenures after one survival, so use the cycle
           where it is still young: scan must re-mark the card. *)
        check "card dirty before cycle" true (Card_table.is_dirty cards c);
        Mutator.clear_reg m 1;
        ignore (Runtime.collect_and_wait rt m ~full:false);
        check "young kept alive through card" true (Heap.is_object heap young))
  in
  ignore rt

(* ------------------------------------------------------------------ *)
(* Non-generational baseline specifics                                 *)
(* ------------------------------------------------------------------ *)

let test_non_gen_no_black_between_cycles () =
  let rt =
    with_runtime ~gc:Gc_config.non_generational (fun rt m ->
        for _ = 1 to 5 do
          ignore (push_node rt m ~size:32 0)
        done;
        ignore (Runtime.collect_and_wait rt m ~full:true);
        let heap = Runtime.heap rt in
        Heap.iter_objects heap (fun x ->
            check "no black or gray objects between cycles" false
              (Color.equal (Heap.color heap x) Color.Black
              || Color.equal (Heap.color heap x) Color.Gray)))
  in
  ignore rt

let test_non_gen_reclaims_all_garbage_each_cycle () =
  let rt =
    with_runtime ~gc:Gc_config.non_generational (fun rt m ->
        for _ = 1 to 20 do
          ignore (push_node rt m ~size:32 0)
        done;
        Mutator.clear_reg m 0;
        ignore (Runtime.collect_and_wait rt m ~full:true);
        check_int "all reclaimed in one cycle" 0
          (Heap.object_count (Runtime.heap rt)))
  in
  ignore rt

(* ------------------------------------------------------------------ *)
(* Triggering                                                          *)
(* ------------------------------------------------------------------ *)

let test_partial_trigger_by_allocation_volume () =
  let gc = Gc_config.generational ~young_bytes:(4 * kb) () in
  let rt =
    with_runtime ~gc (fun rt m ->
        (* allocate ~48 KB of garbage against a 4 KB young generation *)
        for _ = 1 to 1536 do
          ignore (Runtime.alloc rt m ~size:32 ~n_slots:0)
        done;
        drain rt m)
  in
  let stats = Runtime.stats rt in
  check "at least two partial collections triggered" true
    (Gc_stats.count stats Gc_stats.Partial >= 2);
  check_int "no full collections needed" 0 (Gc_stats.count stats Gc_stats.Full)

let test_full_trigger_when_heap_fills () =
  (* live data accumulates: partials promote everything, occupancy crosses
     the full trigger, a full collection must happen *)
  let gc = Gc_config.generational ~young_bytes:(2 * kb) () in
  let rt =
    with_runtime ~heap:(heap_cfg ~initial:(8 * kb) ~max:(16 * kb) ())
      ~gc
      (fun rt m ->
        for i = 1 to 900 do
          ignore (push_node rt m ~size:32 0);
          (* periodically drop the list so fulls can reclaim *)
          if i mod 150 = 0 then Mutator.clear_reg m 0
        done;
        drain rt m)
  in
  check "a full collection was triggered" true
    (Gc_stats.count (Runtime.stats rt) Gc_stats.Full >= 1)

let test_heap_grows_under_live_pressure () =
  let rt =
    with_runtime ~heap:(heap_cfg ~initial:(4 * kb) ~max:(64 * kb) ())
      (fun rt m ->
        (* live set ~32 KB cannot fit in 4 KB: heap must grow *)
        for _ = 1 to 512 do
          ignore (push_node rt m ~size:64 0)
        done;
        check_int "all live" 512 (list_length rt m 0))
  in
  check "heap grew" true (Heap.capacity (Runtime.heap rt) > 4 * kb)

let test_out_of_memory () =
  check "raises Out_of_memory" true
    (match
       with_runtime ~heap:(heap_cfg ~initial:(4 * kb) ~max:(4 * kb) ())
         (fun rt m ->
           for _ = 1 to 500 do
             ignore (push_node rt m ~size:64 0)
           done)
     with
    | _ -> false
    | exception Runtime.Out_of_memory -> true)

(* ------------------------------------------------------------------ *)
(* Statistics plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let test_cycle_statistics_populated () =
  let rt =
    with_runtime (fun rt m ->
        for _ = 1 to 20 do
          ignore (push_node rt m ~size:32 0)
        done;
        let g = Runtime.alloc rt m ~size:32 ~n_slots:0 in
        ignore g;
        let cycle = Runtime.collect_and_wait rt m ~full:false in
        check "traced something" true (cycle.Gc_stats.objects_traced >= 20);
        check "freed garbage" true (cycle.Gc_stats.objects_freed >= 1);
        check "bytes freed" true (cycle.Gc_stats.bytes_freed >= 32);
        check "work accounted" true (cycle.Gc_stats.work > 0);
        check "pages touched" true (cycle.Gc_stats.pages_touched > 0);
        check "young census taken" true (cycle.Gc_stats.young_objects_at_start >= 21))
  in
  ignore rt

let test_globals_are_roots () =
  let rt =
    with_runtime (fun rt m ->
        let statics = Runtime.alloc rt m ~size:32 ~n_slots:1 in
        Runtime.add_global rt statics;
        let v = Runtime.alloc rt m ~size:32 ~n_slots:0 in
        Runtime.store rt m ~x:statics ~i:0 ~y:v;
        (* no register refs; only the global chain keeps both alive *)
        ignore (Runtime.collect_and_wait rt m ~full:true);
        ignore (Runtime.collect_and_wait rt m ~full:true);
        check "global kept" true (Heap.is_object (Runtime.heap rt) statics);
        check "global's child kept" true (Heap.is_object (Runtime.heap rt) v))
  in
  ignore rt

let suites =
  [
    ( "collector.basic",
      [
        Alcotest.test_case "churn generational" `Quick test_churn_generational;
        Alcotest.test_case "churn non-generational" `Quick
          test_churn_non_generational;
        Alcotest.test_case "churn aging" `Quick test_churn_aging;
      ] );
    ( "collector.generations",
      [
        Alcotest.test_case "promotion blackens survivors" `Quick
          test_simple_promotion_blackens_survivors;
        Alcotest.test_case "partial spares old garbage" `Quick
          test_partial_does_not_reclaim_old_garbage;
        Alcotest.test_case "partial frees young garbage" `Quick
          test_young_garbage_freed_by_partial;
        Alcotest.test_case "inter-gen pointer roots" `Quick
          test_intergen_pointer_keeps_young_alive;
        Alcotest.test_case "card cleared after scan" `Quick
          test_card_cleared_after_scan;
        Alcotest.test_case "color toggle" `Quick test_color_toggle_swaps;
        Alcotest.test_case "full demotes and reclaims" `Quick
          test_full_collection_demotes_then_reclaims_everything_dead;
      ] );
    ( "collector.aging",
      [
        Alcotest.test_case "tenure threshold" `Quick test_aging_tenure_threshold;
        Alcotest.test_case "young garbage freed" `Quick
          test_aging_young_garbage_freed_quickly;
        Alcotest.test_case "card persistence" `Quick
          test_aging_card_stays_dirty_while_target_young;
      ] );
    ( "collector.non-gen",
      [
        Alcotest.test_case "no black between cycles" `Quick
          test_non_gen_no_black_between_cycles;
        Alcotest.test_case "reclaims all each cycle" `Quick
          test_non_gen_reclaims_all_garbage_each_cycle;
      ] );
    ( "collector.triggering",
      [
        Alcotest.test_case "partial by volume" `Quick
          test_partial_trigger_by_allocation_volume;
        Alcotest.test_case "full when heap fills" `Quick
          test_full_trigger_when_heap_fills;
        Alcotest.test_case "heap grows" `Quick test_heap_grows_under_live_pressure;
        Alcotest.test_case "out of memory" `Quick test_out_of_memory;
      ] );
    ( "collector.stats",
      [
        Alcotest.test_case "cycle statistics" `Quick test_cycle_statistics_populated;
        Alcotest.test_case "globals are roots" `Quick test_globals_are_roots;
      ] );
  ]
