module Heap = Otfgc_heap.Heap
module Space = Otfgc_heap.Space
module Color = Otfgc_heap.Color
module Card_table = Otfgc_heap.Card_table
module Age_table = Otfgc_heap.Age_table
module Remset = Otfgc_heap.Remset
module Freelist = Otfgc_heap.Freelist
module Histogram = Otfgc_support.Histogram
open State

let handshake_statuses = [ Status.Sync1; Status.Sync2; Status.Async ]

let take ?(seq = 0) ?(at_ms = 0.) st =
  let { Ledger.cost; tel; _ } = State.totals st in
  let heap = st.heap in
  let sums = Gc_stats.totals st.stats in
  let fl = Heap.freelist heap in
  let hist_of = Metrics_snapshot.hist_of in
  let handshakes = List.map (Telemetry.handshake_latency tel) handshake_statuses in
  {
    Metrics_snapshot.seq;
    at_ms;
    barrier_updates = Telemetry.barrier_updates tel;
    yellow_fires = Telemetry.yellow_fires tel;
    handshake_acks = Telemetry.handshake_acks tel;
    stalls = Telemetry.stalls tel;
    card_marks = Telemetry.card_marks tel;
    remset_records = Telemetry.remset_records tel;
    lock_waits = Telemetry.lock_waits_total tel;
    lock_waits_by_class =
      Array.to_list (Telemetry.lock_waits tel)
      |> List.mapi (fun cls n -> (cls, n))
      |> List.filter (fun (_, n) -> n > 0);
    events_logged = Flight_recorder.length st.recorder;
    events_dropped = Flight_recorder.dropped st.recorder;
    mutator_work = Cost.mutator_work cost;
    collector_work = Cost.collector_work cost;
    stall_work = Cost.stall_work cost;
    phase_work =
      List.map
        (fun p -> (Metrics_snapshot.metric_name_of_phase p, Cost.phase_work cost p))
        Cost.phases;
    category_work =
      List.map
        (fun c -> (Cost.category_name c, Cost.category_work cost c))
        Cost.categories;
    cycles_partial = Gc_stats.n_completed_of st.stats Gc_stats.Partial;
    cycles_full = Gc_stats.n_completed_of st.stats Gc_stats.Full;
    cycles_non_gen = Gc_stats.n_completed_of st.stats Gc_stats.Non_gen;
    gc_bytes_freed = sums.Gc_stats.bytes_freed;
    gc_objects_freed = sums.Gc_stats.objects_freed;
    promotions = sums.Gc_stats.promotions;
    dirty_card_finds = sums.Gc_stats.dirty_cards;
    steals = sums.Gc_stats.steals;
    steal_failures = sums.Gc_stats.steal_failures;
    trace_workers = st.par.Gc_par.n_workers;
    phase = Cost.phase_name (Cost.current_phase st.ledger.cost);
    heap_capacity = Heap.capacity heap;
    heap_allocated_bytes = Heap.allocated_bytes heap;
    total_alloc_bytes = Heap.total_allocated_bytes heap;
    total_alloc_objects = Heap.total_allocated_objects heap;
    young_bytes = Atomic.get st.bytes_since_gc;
    dirty_cards = Card_table.dirty_count (Heap.cards heap);
    gray_depth = Gray_queue.size st.gray;
    freelist_entries = Freelist.entry_count fl;
    freelist_stale = Freelist.stale_entries fl;
    active_mutators = State.count_active_mutators st;
    time_unit = (if st.parallel then "us" else "units");
    handshake_latency =
      List.map2
        (fun s h -> (Status.to_string s, hist_of h))
        handshake_statuses handshakes;
    stall_latency = hist_of (Telemetry.stall_latency tel);
    cycle_progress = hist_of (Telemetry.cycle_progress tel);
    slo_handshake =
      hist_of (List.fold_left Histogram.merge (Histogram.create ()) handshakes);
    census = None;
  }

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

(* One walk of the blocks, binned by colour (blue, c0, c1, gray, black)
   and by generation (young, old), plus the oracle's floating garbage
   (a marking pass, no second walk). *)
let census st =
  let heap = st.heap in
  let objects = Array.make 7 0 and bytes = Array.make 7 0 in
  let add i size =
    objects.(i) <- objects.(i) + 1;
    bytes.(i) <- bytes.(i) + size
  in
  Space.iter_blocks (Heap.space heap) (fun addr kind size ->
      match kind with
      | Space.Free ->
          (* the color table byte under a free block's header can be a
             stale remnant of a split — the block kind is authoritative *)
          add 0 size
      | Space.Allocated ->
          add
            (match Heap.color heap addr with
            | Color.Blue -> 0
            | Color.C0 -> 1
            | Color.C1 -> 2
            | Color.Gray -> 3
            | Color.Black -> 4)
            size;
          add (if is_old st addr then 6 else 5) size);
  let tally i = { Metrics_snapshot.objects = objects.(i); bytes = bytes.(i) } in
  let floating_objects, floating_bytes = Oracle.floating st in
  {
    Metrics_snapshot.blue = tally 0;
    c0 = tally 1;
    c1 = tally 2;
    gray = tally 3;
    black = tally 4;
    young = tally 5;
    old = tally 6;
    remset_entries = Remset.size (Heap.remset heap);
    floating = { objects = floating_objects; bytes = floating_bytes };
  }

(* One row.  Out of band by construction: reads only — no cost charges,
   no page touches, no scheduling points — so a run with sampling armed
   is step-for-step identical to one without. *)
let sample_now st =
  let s = st.sampler in
  let row = take ~seq:s.Sampler.length st in
  Sampler.push s { row with Metrics_snapshot.census = Some (census st) }

let maybe_sample st =
  let s = st.sampler in
  (* Simulator only: the census walk reads the block structure without
     synchronisation, which mutator cache refills mutate concurrently
     under real domains. *)
  if s.Sampler.every > 0 && not st.parallel then begin
    let now = Cost.elapsed_multi st.ledger.cost in
    if now >= s.Sampler.next_at then begin
      s.Sampler.next_at <- now + s.Sampler.every;
      sample_now st
    end
  end
