(* The card-mark race of Section 7.2.

   A mutator stores an inter-generational pointer (old object -> young
   object) and then sets the card mark, while the collector is clearing and
   re-checking card marks.  With the naive check-then-clear protocol the
   collector can erase a mark just set for a pointer its scan did not see,
   and the young object is then reclaimed although reachable.  The paper's
   3-step protocol (clear, scan, re-mark) tolerates the race.

   The first two tests drive [Collector.clear_cards] directly against a
   single racing store under hundreds of random fine-grained schedules:
   the 3-step protocol must never leave an inter-generational pointer on a
   clean card; the naive protocol demonstrably does.  The remaining tests
   run the full system as integration coverage. *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Color = Otfgc_heap.Color
module Card_table = Otfgc_heap.Card_table
module Sched = Otfgc_sched.Sched
module Substrate = Otfgc_sched.Substrate
module Rng = Otfgc_support.Rng

let kb = 1024

(* One controlled race attempt: an old object [o] on a dirty card with a
   nil slot; the collector scans cards while the mutator stores young [y]
   into [o] at a random moment.  Returns [true] iff the invariant
   "inter-generational pointers live only on dirty cards" is broken at the
   end. *)
let attempt ~naive ~seed =
  let heap_config =
    { Heap.initial_bytes = 64 * kb; max_bytes = 64 * kb; card_size = 16 }
  in
  let gc_config =
    { (Gc_config.aging ~young_bytes:(8 * kb) ~oldest_age:2 ()) with
      Gc_config.naive_card_clear = naive;
    }
  in
  let rt = Runtime.create ~heap_config ~gc_config () in
  let st = Runtime.state rt in
  let heap = st.State.heap in
  (* old object: black (tenured), with one empty slot, on a dirty card *)
  let o = Option.get (Heap.alloc heap ~size:32 ~n_slots:1 ~color:Color.Black) in
  Card_table.mark (Heap.cards heap) o;
  (* young object the mutator is about to publish through [o] *)
  let y =
    Option.get
      (Heap.alloc heap ~size:32 ~n_slots:0
         ~color:(State.clear_color_of (State.phase st)))
  in
  let m = Runtime.new_mutator rt ~name:"mut" () in
  Mutator.set_reg m 0 y;
  let rng = Rng.make seed in
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.split rng)) () in
  let cycle = Gc_stats.begin_cycle st.State.stats Gc_stats.Partial in
  ignore
    (Sched.spawn sched ~name:"collector" (fun () ->
         Collector.clear_cards st cycle));
  let delay = Rng.int rng 60 in
  ignore
    (Sched.spawn sched ~name:"mutator" (fun () ->
         for _ = 1 to delay do
           Sched.yield ()
         done;
         (* async, not tracing: the aging barrier does store-then-MarkCard,
            the exact pair the Section 7.2 argument is about *)
         Collector.update st m ~x:o ~i:0 ~y));
  Sched.run sched;
  (* the width-1 card scan folds its partial counters into [cycle]: the
     one dirty card and the one old object on it *)
  Alcotest.(check int) "dirty cards in cycle" 1 cycle.Gc_stats.dirty_cards;
  Alcotest.(check int)
    "old objects scanned in cycle" 1 cycle.Gc_stats.intergen_scanned;
  let cards = Heap.cards heap in
  let card = Card_table.card_of_addr cards o in
  Heap.get_slot heap o 0 = y && not (Card_table.is_dirty cards card)

let n_attempts = 400

let test_three_step_protocol_is_safe () =
  for seed = 0 to n_attempts - 1 do
    if attempt ~naive:false ~seed then
      Alcotest.failf
        "3-step protocol left an inter-gen pointer on a clean card (seed %d)"
        seed
  done

let test_naive_protocol_loses_marks () =
  let lost = ref 0 in
  for seed = 0 to n_attempts - 1 do
    if attempt ~naive:true ~seed then incr lost
  done;
  if !lost = 0 then
    Alcotest.fail
      "the naive check-then-clear protocol never exhibited the Section 7.2 \
       race in 400 schedules";
  (* the window is a few steps wide, so it should show up repeatedly *)
  Alcotest.(check bool) "race reproducible" true (!lost >= 2)

(* End-to-end: the same race under the full collector, checked by the
   reachability oracle.  The 3-step protocol must never lose an object. *)
let run_system_hammer ~gc ~seed =
  let heap_config =
    { Heap.initial_bytes = 8 * kb; max_bytes = 32 * kb; card_size = 16 }
  in
  let rt = Runtime.create ~heap_config ~gc_config:gc () in
  let master = Rng.make seed in
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.split master)) () in
  ignore (Runtime.spawn_collector rt sched);
  let violation = ref None in
  ignore
    (Sched.spawn sched ~daemon:true ~name:"checker" (fun () ->
         while true do
           for _ = 1 to 32 do
             Sched.yield ()
           done;
           match Oracle.check_safety (Runtime.state rt) with
           | Ok () -> ()
           | Error e -> if !violation = None then violation := Some e
         done));
  let m = Runtime.new_mutator rt ~name:"m" () in
  ignore
    (Sched.spawn sched ~name:"m" (fun () ->
         let o = Runtime.alloc rt m ~size:64 ~n_slots:4 in
         Mutator.set_reg m 0 o;
         ignore (Runtime.collect_and_wait rt m ~full:false);
         for i = 1 to 400 do
           let slot = i mod 4 in
           Runtime.store rt m ~x:o ~i:slot ~y:Heap.nil;
           let y = Runtime.alloc rt m ~size:32 ~n_slots:0 in
           Mutator.set_reg m 1 y;
           Runtime.store rt m ~x:o ~i:slot ~y;
           Mutator.clear_reg m 1;
           ignore (Runtime.alloc rt m ~size:48 ~n_slots:0)
         done;
         Runtime.retire_mutator rt m));
  Sched.run ~max_steps:60_000_000 sched;
  (match Oracle.check_safety (Runtime.state rt) with
  | Ok () -> ()
  | Error e -> if !violation = None then violation := Some e);
  !violation

(* Seeds 608, 978 and 2121 once lost an object through a sync-window
   barrier straddling the color toggle: it judged the fresh object by
   the pre-toggle roles and marked its card after the card scan had
   passed it (DESIGN §5). *)
let test_aging_system_safe () =
  List.iter
    (fun seed ->
      match
        run_system_hammer ~gc:(Gc_config.aging ~young_bytes:kb ~oldest_age:2 ()) ~seed
      with
      | None -> ()
      | Some e ->
          Alcotest.failf "aging collector lost an object (seed %d): %s" seed e)
    (List.init 12 Fun.id @ [ 608; 978; 2121 ])

let test_simple_system_safe () =
  for seed = 0 to 11 do
    match
      run_system_hammer ~gc:(Gc_config.generational ~young_bytes:kb ()) ~seed:(seed + 1000)
    with
    | None -> ()
    | Some e ->
        Alcotest.failf "simple collector lost an object (seed %d): %s" seed e
  done

(* The color toggle of Section 5.  A toggle swaps the roles of the two
   colors, and MarkGray decides from both roles at once, so no reader may
   ever see the two roles name the same color: a half-made toggle makes
   MarkGray skip one of the toggling colors entirely.  Under fine-grained
   random schedules a checker process reads the pair at every step while
   a mutator runs partial and full cycles; the pair must always be the
   two distinct toggling colors, and "tracing" and "sweeping" never both
   hold. *)
let toggle_violation ~gc ~seed =
  let heap_config =
    { Heap.initial_bytes = 8 * kb; max_bytes = 32 * kb; card_size = 16 }
  in
  let rt = Runtime.create ~heap_config ~gc_config:gc () in
  let st = Runtime.state rt in
  let sched =
    Sched.create ~policy:(Sched.random_policy (Rng.make seed)) ()
  in
  ignore (Runtime.spawn_collector rt sched);
  let violation = ref None in
  let toggling c = Color.equal c Color.C0 || Color.equal c Color.C1 in
  ignore
    (Sched.spawn sched ~daemon:true ~name:"checker" (fun () ->
         while true do
           (* three loads with no scheduling point between them see one
              state of the word: every state a step boundary exposes *)
           let a = State.allocation_color_of (State.phase st) in
           let c = State.clear_color_of (State.phase st) in
           let w = State.phase st in
           (if !violation = None then
              if Color.equal a c || not (toggling a && toggling c) then
                violation :=
                  Some
                    (Printf.sprintf "allocation %s, clear %s"
                       (Color.to_string a) (Color.to_string c))
              else if w land State.tracing_bit <> 0
                      && w land State.sweeping_bit <> 0 then
                violation := Some "tracing and sweeping both set");
           Sched.yield ()
         done));
  let m = Runtime.new_mutator rt ~name:"m" () in
  ignore
    (Sched.spawn sched ~name:"m" (fun () ->
         let o = Runtime.alloc rt m ~size:64 ~n_slots:2 in
         Mutator.set_reg m 0 o;
         List.iter
           (fun full ->
             Runtime.store rt m ~x:o ~i:0
               ~y:(Runtime.alloc rt m ~size:32 ~n_slots:0);
             ignore (Runtime.collect_and_wait rt m ~full))
           [ false; false; true; false ];
         Runtime.retire_mutator rt m));
  Sched.run ~max_steps:10_000_000 sched;
  !violation

let toggle_seeds = 24

let test_toggle_atomic_sim () =
  List.iter
    (fun (name, gc) ->
      for seed = 0 to toggle_seeds - 1 do
        match toggle_violation ~gc ~seed with
        | None -> ()
        | Some e -> Alcotest.failf "%s, seed %d: %s" name seed e
      done)
    [
      ("generational", Gc_config.generational ~young_bytes:kb ());
      ("aging:2", Gc_config.aging ~young_bytes:kb ~oldest_age:2 ());
    ]

(* The same invariant on real domains, through the reader that matters:
   in [Generational] mode a mutator in a sync window must shade an object
   of either toggling color.  One domain toggles the colors as the
   collector does (one store, then a scheduling point, here jittered)
   while another runs MarkGray on an object it recolors C0, C1, C0, ... *)
let test_toggle_atomic_domains () =
  let heap =
    Heap.create
      { Heap.initial_bytes = 64 * kb; max_bytes = 64 * kb; card_size = 16 }
  in
  let st = State.create heap (Gc_config.generational ()) in
  let x = Option.get (Heap.alloc heap ~size:32 ~n_slots:0 ~color:Color.C0) in
  let stop = Atomic.make false and toggles = Atomic.make 0 in
  let toggler =
    Domain.spawn (fun () ->
        Substrate.set_current Substrate.Domains;
        Substrate.set_jitter ~seed:7 ~prob:1.0 ~max_spin:64;
        while not (Atomic.get stop) do
          Atomic.set st.State.phase (State.phase st lxor State.parity_bit);
          State.step st;
          Atomic.incr toggles
        done)
  in
  (* the reader starts once the toggler runs, and stops after enough
     toggles to cross its window many times *)
  let reader =
    Domain.spawn (fun () ->
        Substrate.set_current Substrate.Domains;
        let missed = ref 0 and i = ref 0 in
        while Atomic.get toggles = 0 do
          Domain.cpu_relax ()
        done;
        while Atomic.get toggles < 20_000 do
          incr i;
          Heap.set_color heap x (if !i land 1 = 0 then Color.C0 else Color.C1);
          if Collector.mark_gray st ~tel:st.State.ledger.tel ~sync:true x then
            ignore (Gray_queue.pop st.State.gray : int option)
          else incr missed
        done;
        Atomic.set stop true;
        !missed)
  in
  let missed = Domain.join reader in
  Domain.join toggler;
  Alcotest.(check int) "sync-window MarkGray misses" 0 missed

let suites =
  [
    ( "races.toggle",
      [
        Alcotest.test_case "simulator: colors never coincide" `Quick
          test_toggle_atomic_sim;
        Alcotest.test_case "domains: MarkGray sees whole toggles" `Quick
          test_toggle_atomic_domains;
      ] );
    ( "races.cards",
      [
        Alcotest.test_case "3-step protocol safe" `Slow
          test_three_step_protocol_is_safe;
        Alcotest.test_case "naive protocol loses marks" `Slow
          test_naive_protocol_loses_marks;
        Alcotest.test_case "aging system safe" `Slow test_aging_system_safe;
        Alcotest.test_case "simple system safe" `Slow test_simple_system_safe;
      ] );
  ]
