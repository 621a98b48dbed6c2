type phase = Idle | Clear | Handshake | Card_scan | Trace | Sweep

let n_phases = 6

let phase_index = function
  | Idle -> 0
  | Clear -> 1
  | Handshake -> 2
  | Card_scan -> 3
  | Trace -> 4
  | Sweep -> 5

let phases = [ Idle; Clear; Handshake; Card_scan; Trace; Sweep ]

let phase_name = function
  | Idle -> "idle"
  | Clear -> "clear"
  | Handshake -> "handshake"
  | Card_scan -> "card-scan"
  | Trace -> "trace"
  | Sweep -> "sweep"

type category = App | Barrier_fast | Barrier_slow | Card_mark

let n_categories = 4

let category_index = function
  | App -> 0
  | Barrier_fast -> 1
  | Barrier_slow -> 2
  | Card_mark -> 3

let categories = [ App; Barrier_fast; Barrier_slow; Card_mark ]

let category_name = function
  | App -> "app"
  | Barrier_fast -> "barrier-fast"
  | Barrier_slow -> "barrier-slow"
  | Card_mark -> "card-mark"

type t = {
  mutable mutator_work : int;
  mutable collector_work : int;
  mutable stall_work : int;
  (* Attribution side tables: every charge above is simultaneously binned
     by the collector's current phase (collector charges) or by mutator
     category (mutator charges), so the split always sums exactly to the
     headline counters.  Plain array increments — no allocation, and no
     change to any total the experiments report. *)
  mutable phase : int;
  by_phase : int array;
  by_category : int array;
}

let create () =
  {
    mutator_work = 0;
    collector_work = 0;
    stall_work = 0;
    phase = 0;
    by_phase = Array.make n_phases 0;
    by_category = Array.make n_categories 0;
  }

let mutator t n =
  t.mutator_work <- t.mutator_work + n;
  t.by_category.(0) <- t.by_category.(0) + n

let mutator_cat t c n =
  t.mutator_work <- t.mutator_work + n;
  let i = category_index c in
  t.by_category.(i) <- t.by_category.(i) + n

let collector t n =
  t.collector_work <- t.collector_work + n;
  t.by_phase.(t.phase) <- t.by_phase.(t.phase) + n

let stall t n = t.stall_work <- t.stall_work + n

let set_phase t p = t.phase <- phase_index p
let current_phase t = List.nth phases t.phase

let mutator_work t = t.mutator_work
let collector_work t = t.collector_work
let stall_work t = t.stall_work

let phase_work t p = t.by_phase.(phase_index p)
let category_work t c = t.by_category.(category_index c)

let elapsed_multi t = t.mutator_work + t.collector_work + t.stall_work

(* On a uniprocessor a stalled mutator leaves the only CPU to the
   collector, but nothing else makes progress, so stalls weigh double. *)
let elapsed_uni t = t.mutator_work + t.collector_work + (2 * t.stall_work)

(* Add one actor's ledger into a total.  Work adds linearly, so the sum
   equals what a single shared ledger would have accumulated without the
   races. *)
let merge_into ~src ~dst =
  dst.mutator_work <- dst.mutator_work + src.mutator_work;
  dst.collector_work <- dst.collector_work + src.collector_work;
  dst.stall_work <- dst.stall_work + src.stall_work;
  for i = 0 to n_phases - 1 do
    dst.by_phase.(i) <- dst.by_phase.(i) + src.by_phase.(i)
  done;
  for i = 0 to n_categories - 1 do
    dst.by_category.(i) <- dst.by_category.(i) + src.by_category.(i)
  done

let reset t =
  t.mutator_work <- 0;
  t.collector_work <- 0;
  t.stall_work <- 0;
  t.phase <- 0;
  Array.fill t.by_phase 0 n_phases 0;
  Array.fill t.by_category 0 n_categories 0

(* Calibrated against the paper's measured ratios (Figures 11, 13, 14):
   tracing one object costs ~0.68 us (226 cycles on the 332 MHz PPC) ~ 2-3
   allocation iterations; sweeping costs ~3 ns per heap byte; the write
   barrier is a handful of instructions.  Units are ~10 ns. *)
let c_alloc = 6
let c_store = 1
let c_load = 1
let c_compute = 1
let c_mark_card = 1
let c_mark_gray = 3
let c_barrier_check = 1
let c_cooperate = 1
let c_handshake = 4
let c_scan_slot = 6
let c_trace_obj = 25
let c_card_visit = 4
let c_card_obj = 2
let c_sweep_block = 4
let c_free = 2
let c_root = 2
let c_card_miss = 3
let c_remset_test = 1
let c_remset_append = 2
