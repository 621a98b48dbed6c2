(* Heapscope: watch the generational heap evolve.

   Runs a small allocation-heavy program, prints an ASCII heap map at
   interesting moments (fresh heap, after young churn, after a partial
   collection, after dropping the long-lived data, after a full
   collection) and finishes with the collector's phase-event timeline —
   the observability surface a production collector would expose.

   Run with:  dune exec examples/heapscope.exe *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Heap_render = Otfgc_heap.Heap_render
module Sched = Otfgc_sched.Sched
module Rng = Otfgc_support.Rng

let show heap label =
  Printf.printf "--- %s ---\n%s\n" label (Heap_render.ascii ~width:64 ~rows:8 heap)

let () =
  let rt =
    Runtime.create
      ~heap_config:{ Heap.initial_bytes = 256 * 1024; max_bytes = 1024 * 1024; card_size = 16 }
      ~gc_config:(Gc_config.generational ~young_bytes:(64 * 1024) ())
      ()
  in
  Runtime.arm_recorder rt;
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.make 5)) () in
  ignore (Runtime.spawn_collector rt sched);
  let m = Runtime.new_mutator rt ~name:"main" () in
  ignore
    (Sched.spawn sched ~name:"main" (fun () ->
         let heap = Runtime.heap rt in
         show heap "fresh heap";

         (* build a long-lived list (the future old generation) *)
         for _ = 1 to 1500 do
           let node = Runtime.alloc rt m ~size:48 ~n_slots:2 in
           Mutator.set_reg m 1 node;
           let head = Mutator.get_reg m 0 in
           if head <> Heap.nil then Runtime.store rt m ~x:node ~i:0 ~y:head;
           Mutator.set_reg m 0 node;
           Mutator.clear_reg m 1
         done;
         show heap "after building 1500 long-lived nodes (all still young)";

         ignore (Runtime.collect_and_wait rt m ~full:false);
         show heap "after a partial collection (survivors promoted to old/B)";

         (* young churn: garbage that the next partial reclaims *)
         for _ = 1 to 4000 do
           ignore (Runtime.alloc rt m ~size:32 ~n_slots:0)
         done;
         show heap "after 4000 short-lived allocations (young churn, o)";

         ignore (Runtime.collect_and_wait rt m ~full:false);
         show heap "after the next partial (young garbage swept, old intact)";

         (* drop the long-lived list: old garbage only a full can reclaim *)
         Mutator.clear_reg m 0;
         ignore (Runtime.collect_and_wait rt m ~full:false);
         show heap "after dropping the list + a partial (old garbage remains)";

         ignore (Runtime.collect_and_wait rt m ~full:true);
         show heap "after a full collection (old generation reclaimed)";

         Runtime.retire_mutator rt m));
  Sched.run sched;

  print_endline "--- collector phase timeline (elapsed work units) ---";
  Format.printf "%a@?" Otfgc_metrics.Trace_export.pp_timeline
    (Runtime.recorder rt)
