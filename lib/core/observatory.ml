module Heap = Otfgc_heap.Heap
module Space = Otfgc_heap.Space
module Color = Otfgc_heap.Color
module Card_table = Otfgc_heap.Card_table
module Age_table = Otfgc_heap.Age_table
module Remset = Otfgc_heap.Remset
module Freelist = Otfgc_heap.Freelist
module Timeseries = Otfgc_support.Timeseries
open State

(* Generation membership for the census.  Promotion is a color-table
   fact for the simple policy (old = black, see Collector.is_old) and an
   age-table fact for the aging collectors (promoted objects freeze at
   the sentinel 255 — during a sweep, black also covers just-traced
   young survivors, which the sentinel excludes).  The non-generational
   collector has no old generation at all: black there is merely the
   current mark color. *)
let is_old st x =
  match st.cfg.Gc_config.mode with
  | Gc_config.Non_generational -> false
  | Gc_config.Generational -> Color.equal (Heap.color st.heap x) Color.Black
  | Gc_config.Generational_aging _ | Gc_config.Generational_adaptive ->
      Age_table.get (Heap.ages st.heap) x = 255

(* One census row.  Out of band by construction: reads only — no cost
   charges, no page touches, no scheduling points — so a run with
   sampling armed is step-for-step identical to one without. *)
let sample st ~now =
  let s = st.sampler in
  s.Sampler.next_at <- now + s.Sampler.every;
  let heap = st.heap in
  let space = Heap.space heap in
  let ts = s.Sampler.series in
  let blue_n = ref 0
  and blue_b = ref 0
  and c0_n = ref 0
  and c0_b = ref 0
  and c1_n = ref 0
  and c1_b = ref 0
  and gray_n = ref 0
  and gray_b = ref 0
  and black_n = ref 0
  and black_b = ref 0
  and young_n = ref 0
  and young_b = ref 0
  and old_n = ref 0
  and old_b = ref 0 in
  Space.iter_blocks space (fun addr kind size ->
      match kind with
      | Space.Free ->
          (* the color table byte under a free block's header can be a
             stale remnant of a split — the block kind is authoritative *)
          incr blue_n;
          blue_b := !blue_b + size
      | Space.Allocated ->
          (match Heap.color heap addr with
          | Color.Blue ->
              incr blue_n;
              blue_b := !blue_b + size
          | Color.C0 ->
              incr c0_n;
              c0_b := !c0_b + size
          | Color.C1 ->
              incr c1_n;
              c1_b := !c1_b + size
          | Color.Gray ->
              incr gray_n;
              gray_b := !gray_b + size
          | Color.Black ->
              incr black_n;
              black_b := !black_b + size);
          if is_old st addr then begin
            incr old_n;
            old_b := !old_b + size
          end
          else begin
            incr young_n;
            young_b := !young_b + size
          end);
  let floating_n = ref 0 and floating_b = ref 0 in
  (* no oracle under real domains: mutators keep running, so there is no
     consistent reachability snapshot mid-run (the driver runs the
     oracle at quiescence instead) *)
  if s.Sampler.oracle && not st.parallel then
    Oracle.iter_garbage st (fun x ->
        incr floating_n;
        floating_b := !floating_b + Heap.size heap x);
  let fl = Heap.freelist heap in
  Timeseries.set ts Sampler.i_at now;
  Timeseries.set ts Sampler.i_phase
    (Cost.phase_index (Cost.current_phase st.ledger.cost));
  Timeseries.set ts Sampler.i_collecting
    (if Atomic.get st.collecting then 1 else 0);
  Timeseries.set ts Sampler.i_capacity (Heap.capacity heap);
  Timeseries.set ts Sampler.i_allocated_bytes (Heap.allocated_bytes heap);
  Timeseries.set ts Sampler.i_blue_blocks !blue_n;
  Timeseries.set ts Sampler.i_blue_bytes !blue_b;
  Timeseries.set ts Sampler.i_c0_objects !c0_n;
  Timeseries.set ts Sampler.i_c0_bytes !c0_b;
  Timeseries.set ts Sampler.i_c1_objects !c1_n;
  Timeseries.set ts Sampler.i_c1_bytes !c1_b;
  Timeseries.set ts Sampler.i_gray_objects !gray_n;
  Timeseries.set ts Sampler.i_gray_bytes !gray_b;
  Timeseries.set ts Sampler.i_black_objects !black_n;
  Timeseries.set ts Sampler.i_black_bytes !black_b;
  Timeseries.set ts Sampler.i_young_objects !young_n;
  Timeseries.set ts Sampler.i_young_bytes !young_b;
  Timeseries.set ts Sampler.i_old_objects !old_n;
  Timeseries.set ts Sampler.i_old_bytes !old_b;
  Timeseries.set ts Sampler.i_freelist_entries (Freelist.entry_count fl);
  Timeseries.set ts Sampler.i_freelist_stale (Freelist.stale_entries fl);
  Timeseries.set ts Sampler.i_dirty_cards
    (Card_table.dirty_count (Heap.cards heap));
  Timeseries.set ts Sampler.i_gray_depth (Gray_queue.size st.gray);
  Timeseries.set ts Sampler.i_remset_entries (Remset.size (Heap.remset heap));
  Timeseries.set ts Sampler.i_floating_objects !floating_n;
  Timeseries.set ts Sampler.i_floating_bytes !floating_b;
  let tel = (State.totals st).tel in
  Timeseries.set ts Sampler.i_promotions (Telemetry.promotions tel);
  Timeseries.set ts Sampler.i_stalls (Telemetry.stalls tel);
  Timeseries.commit ts

let sample_now st = sample st ~now:(Cost.elapsed_multi st.ledger.cost)

let maybe_sample st =
  let s = st.sampler in
  (* Simulator only: the census walk reads the block structure without
     synchronisation, which mutator cache refills mutate concurrently
     under real domains.  Domains runs census at cycle segment
     boundaries instead ({!phase_sample}, under the heap lock). *)
  if s.Sampler.every > 0 && not st.parallel then begin
    let now = Cost.elapsed_multi st.ledger.cost in
    if now >= s.Sampler.next_at then sample st ~now
  end

(* Domains-substrate census: taken by the orchestrating collector at
   cycle segment boundaries (cycle start, after cards, after trace,
   after sweep), under the heap lock so the block walk cannot race a
   mutator refill splitting blocks.  The cadence clock is
   [State.now_units] — real microseconds on this substrate — so
   [Sampler.configure]'s [every] is a wall-clock interval here. *)
let phase_sample st =
  let s = st.sampler in
  if st.parallel && s.Sampler.every > 0 then begin
    let now = State.now_units st in
    if now >= s.Sampler.next_at then begin
      State.lock_heap st;
      sample st ~now;
      State.unlock_heap st
    end
  end
