(* Runtime lifecycle tests: collector shutdown, mutator registration
   around collections, request coalescing, custom register files. *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Sched = Otfgc_sched.Sched
module Rng = Otfgc_support.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let kb = 1024

let test_shutdown_terminates_collector () =
  let rt = Runtime.create () in
  let sched = Sched.create () in
  (* non-daemon collector: the run can only end if shutdown works *)
  let _pid =
    Sched.spawn sched ~name:"collector" (fun () ->
        Collector.collector_loop (Runtime.state rt))
  in
  ignore
    (Sched.spawn sched ~name:"m" (fun () ->
         for _ = 1 to 10 do
           Sched.yield ()
         done;
         Runtime.shutdown rt));
  (* terminates (Stalled would fail the test) *)
  Sched.run ~max_steps:1_000_000 sched;
  check "collector exited" true true

let test_request_collection_coalesces () =
  let rt = Runtime.create () in
  let st = Runtime.state rt in
  Runtime.request_collection rt ~full:false;
  (* a second request while one is pending does not upgrade or replace *)
  Runtime.request_collection rt ~full:true;
  check "first request kept" true
    (Atomic.get st.State.gc_request = State.Want_partial)

let test_new_mutator_waits_for_idle_collector () =
  let rt =
    Runtime.create
      ~heap_config:{ Heap.initial_bytes = 16 * kb; max_bytes = 32 * kb; card_size = 16 }
      ~gc_config:(Gc_config.generational ())
      ()
  in
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.make 4)) () in
  ignore (Runtime.spawn_collector rt sched);
  let m = Runtime.new_mutator rt ~name:"first" () in
  let second_registered = ref false in
  ignore
    (Sched.spawn sched ~name:"first" (fun () ->
         let a = Runtime.alloc rt m ~size:32 ~n_slots:0 in
         Mutator.set_reg m 0 a;
         Runtime.request_collection rt ~full:false;
         (* while the cycle runs, a second thread registers; it must not
            join mid-handshake *)
         ignore
           (Sched.spawn sched ~name:"second" (fun () ->
                let m2 = Runtime.new_mutator rt ~name:"second" () in
                second_registered := true;
                ignore (Runtime.alloc rt m2 ~size:32 ~n_slots:0);
                Runtime.retire_mutator rt m2));
         (* keep cooperating until the cycle completes (an explicit loop:
            cooperate yields in fine-grained mode) *)
         let st = Runtime.state rt in
         while
           not
             (Runtime.cooperate rt m;
              (not (Atomic.get st.State.collecting))
              && Atomic.get st.State.gc_request = State.No_request
              && !second_registered)
         do
           Sched.yield ()
         done;
         Runtime.retire_mutator rt m));
  Sched.run ~max_steps:20_000_000 sched;
  check "second mutator ran" true !second_registered

let test_custom_register_file () =
  let rt = Runtime.create () in
  let sched = Sched.create () in
  ignore (Runtime.spawn_collector rt sched);
  let m = Runtime.new_mutator rt ~name:"m" ~n_regs:2 () in
  check_int "two registers" 2 (Mutator.n_regs m);
  ignore
    (Sched.spawn sched ~name:"m" (fun () ->
         let a = Runtime.alloc rt m ~size:32 ~n_slots:0 in
         Mutator.set_reg m 1 a;
         Runtime.retire_mutator rt m));
  Sched.run sched

let test_globals_registered_before_run () =
  (* a global set up outside any process still roots its object *)
  let rt =
    Runtime.create
      ~heap_config:{ Heap.initial_bytes = 16 * kb; max_bytes = 32 * kb; card_size = 16 }
      ()
  in
  let heap = Runtime.heap rt in
  let statics =
    Option.get
      (Heap.alloc heap ~size:32 ~n_slots:1 ~color:Otfgc_heap.Color.C0)
  in
  Runtime.add_global rt statics;
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.make 6)) () in
  ignore (Runtime.spawn_collector rt sched);
  let m = Runtime.new_mutator rt ~name:"m" () in
  ignore
    (Sched.spawn sched ~name:"m" (fun () ->
         ignore (Runtime.collect_and_wait rt m ~full:true);
         Runtime.retire_mutator rt m));
  Sched.run ~max_steps:20_000_000 sched;
  check "global survived a full collection" true (Heap.is_object heap statics)

let test_load_returns_stored_value () =
  let rt = Runtime.create () in
  let sched = Sched.create () in
  ignore (Runtime.spawn_collector rt sched);
  let m = Runtime.new_mutator rt ~name:"m" () in
  let ok = ref false in
  ignore
    (Sched.spawn sched ~name:"m" (fun () ->
         let a = Runtime.alloc rt m ~size:32 ~n_slots:2 in
         Mutator.set_reg m 0 a;
         let b = Runtime.alloc rt m ~size:32 ~n_slots:0 in
         Mutator.set_reg m 1 b;
         Runtime.store rt m ~x:a ~i:1 ~y:b;
         ok := Runtime.load rt m ~x:a ~i:1 = b && Runtime.load rt m ~x:a ~i:0 = Heap.nil;
         Runtime.retire_mutator rt m));
  Sched.run sched;
  check "load round-trips" true !ok

let suites =
  [
    ( "runtime",
      [
        Alcotest.test_case "shutdown" `Quick test_shutdown_terminates_collector;
        Alcotest.test_case "request coalescing" `Quick test_request_collection_coalesces;
        Alcotest.test_case "mutator joins around a cycle" `Quick
          test_new_mutator_waits_for_idle_collector;
        Alcotest.test_case "custom registers" `Quick test_custom_register_file;
        Alcotest.test_case "globals before run" `Quick
          test_globals_registered_before_run;
        Alcotest.test_case "load/store roundtrip" `Quick test_load_returns_stored_value;
      ] );
  ]
