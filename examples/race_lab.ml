(* The card-mark race of Section 7.2, live.

   The paper's aging collector must clear card marks while mutators are
   setting them.  Done naively (check, then clear), a mutator can slip an
   inter-generational pointer store between the collector's check and its
   clear — the mark is lost, and the young object later dies while
   reachable.  The paper's 3-step protocol (clear first, then scan, then
   re-mark) makes the race harmless.

   Because every thread in this simulator is a deterministic coroutine,
   the race is not a heisenbug: this example replays the same few hundred
   schedules against both protocols and counts how often each loses the
   mark.

   Run with:  dune exec examples/race_lab.exe *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Color = Otfgc_heap.Color
module Card_table = Otfgc_heap.Card_table
module Sched = Otfgc_sched.Sched
module Rng = Otfgc_support.Rng

(* One attempt: an old object [o] with a dirty card and an empty slot; the
   collector scans cards while the mutator stores a young object into [o]
   at a random point in the schedule.  Returns true iff the invariant
   "inter-generational pointers live only on dirty cards" broke. *)
let attempt ~naive ~seed =
  let kb = 1024 in
  let rt =
    Runtime.create
      ~heap_config:{ Heap.initial_bytes = 64 * kb; max_bytes = 64 * kb; card_size = 16 }
      ~gc_config:
        { (Gc_config.aging ~young_bytes:(8 * kb) ~oldest_age:2 ()) with
          Gc_config.naive_card_clear = naive;
        }
      ()
  in
  let st = Runtime.state rt in
  let heap = st.State.heap in
  let o = Option.get (Heap.alloc heap ~size:32 ~n_slots:1 ~color:Color.Black) in
  Card_table.mark (Heap.cards heap) o;
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
         Collector.update st m ~x:o ~i:0 ~y));
  Sched.run sched;
  let cards = Heap.cards heap in
  Heap.get_slot heap o 0 = y
  && not (Card_table.is_dirty cards (Card_table.card_of_addr cards o))

let count_losses ~naive =
  let lost = ref 0 in
  for seed = 0 to 399 do
    if attempt ~naive ~seed then incr lost
  done;
  !lost

let () =
  print_endline "Section 7.2 card-mark race, 400 random schedules each:\n";
  let naive = count_losses ~naive:true in
  Printf.printf
    "  naive check-then-clear: lost the card mark %3d/400 times  %s\n" naive
    (if naive > 0 then "(young objects would die while reachable!)" else "");
  let threestep = count_losses ~naive:false in
  Printf.printf "  paper's 3-step protocol: lost the card mark %3d/400 times\n"
    threestep;
  if threestep = 0 && naive > 0 then
    print_endline "\nThe 3-step protocol tolerates the race; the naive one does not."
