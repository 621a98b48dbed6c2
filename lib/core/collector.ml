module Heap = Otfgc_heap.Heap
module Space = Otfgc_heap.Space
module Color = Otfgc_heap.Color
module Card_table = Otfgc_heap.Card_table
module Age_table = Otfgc_heap.Age_table
module Page_set = Otfgc_heap.Page_set
module Remset = Otfgc_heap.Remset
module Layout = Otfgc_heap.Layout
module Substrate = Otfgc_sched.Substrate
open State

let mode_of st = st.cfg.Gc_config.mode

(* Internal tenuring threshold: the paper allocates objects "with age 1"
   and promotes at [oldest_age]; our age table starts at 0, so an object is
   old once it has survived [oldest_age - 1] collections.  The sweep
   promotes (keeps black, stops aging) when the current sweep is the
   object's (oldest_age - 1)-th survival, i.e. when age + 1 >= survivals
   needed; promoted objects are frozen at the age sentinel 255. *)
let survivals_to_tenure st =
  match mode_of st with
  | Gc_config.Generational_aging { oldest_age } -> Stdlib.max 1 (oldest_age - 1)
  | Gc_config.Generational_adaptive -> Stdlib.max 1 st.tenure_threshold
  | _ -> 1

(* Between collections, an object is old exactly when it is black: the
   sweep leaves black only on promoted objects and de-promotes everything
   else, whatever the threshold.  Figure 6 writes the test as
   "black && age = oldestAge", which is equivalent under a fixed
   threshold — but NOT under adaptive tenuring: after the threshold rises,
   earlier promotions sit at a lower age and the age-qualified test would
   skip them during the card scan, leaving their young children ungrayed
   (a reachable-object loss our seed-hunting property tests caught).  The
   color alone is the invariant. *)
let is_old st x = Color.equal (Heap.color st.heap x) Color.Black

(* ------------------------------------------------------------------ *)
(* MarkGray (Figure 1 and Figure 4)                                    *)
(* ------------------------------------------------------------------ *)

(* Figure 1: shade objects with the clear color and — in [Generational]
   mode when the calling mutator is in sync1/sync2 — objects with the
   allocation color (the "yellow exception" of Section 4, which protects
   yellow objects created in the window between the card scan and the color
   toggle).  Figure 4 (aging) and the non-generational DLG barrier shade
   the clear color only.  A scheduling point sits between the color load
   and the gray store: the paper's machine model only makes individual
   loads and stores atomic.  [tel] is the caller-context telemetry —
   per-mutator under real domains when a barrier shades, shared when the
   collector does. *)
let mark_gray st ~tel ~sync x =
  if x = Heap.nil then false
  else begin
    let c = Heap.color st.heap x in
    State.step st;
    let clearish = Color.equal c st.clear_color in
    let yellow =
      (not clearish) && sync
      && (match mode_of st with
         | Gc_config.Generational -> Color.equal c st.allocation_color
         | Gc_config.Non_generational | Gc_config.Generational_aging _
         | Gc_config.Generational_adaptive ->
             false)
    in
    if clearish || yellow then begin
      if yellow then Telemetry.hit_yellow tel;
      (* Shade, then publish.  Under real domains the color write is
         plain but the push's mutex release orders it before any
         collector pop (see Gray_queue); duplicate pushes from racing
         shaders are tolerated — the trace re-checks colors. *)
      Heap.set_color st.heap x Color.Gray;
      Gray_queue.push st.gray x;
      true
    end
    else false
  end

let charged_mark_gray st ~charge ~tel ~sync x =
  if mark_gray st ~tel ~sync x then charge Cost.c_mark_gray

(* Collector-side charge that also paces the collector process: one yield
   per ~8 work units, so scheduled time advances proportionally to the
   cost model on both sides — the collector owns a CPU and is not slower
   per unit of work than the mutators it runs beside.  (On the domains
   substrate the yield point is free — the hardware paces for real.)
   The counter is [pace] on crew worker 0 [w0], not on [State.t]: the
   collector bumps it on every charge, and mutator domains read the
   state record on every operation. *)
let pace_charge st (w0 : Gc_par.worker) k =
  Cost.collector st.cost k;
  Observatory.maybe_sample st;
  w0.Gc_par.pace <- w0.Gc_par.pace + k;
  if w0.Gc_par.pace >= st.collector_speed then begin
    w0.Gc_par.pace <- 0;
    Substrate.yield ()
  end

let charge_tick st k = pace_charge st st.par.Gc_par.workers.(0) k

(* An instant on the collector's event track (no cost: observability
   must not perturb the schedule).  Disarmed: one option check. *)
let note st kind ~a =
  match Flight_recorder.collector_ring st.recorder with
  | Some r ->
      Flight_recorder.instant r kind ~a ~at:(Flight_recorder.ring_now r)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* MarkCard                                                            *)
(* ------------------------------------------------------------------ *)

(* Mutator side: dirty the card holding the object's header.  With 16-byte
   cards this is the paper's "object marking".  The card-cache model
   charges the locality cost of touching a scattered card table
   (Section 8.5.3) — a simulated-cost artifact, skipped under real domains
   where the hardware's own cache does the charging and the model's shared
   state would race. *)
let mutator_mark_card st ~cost ~tel x =
  let cards = Heap.cards st.heap in
  let idx = Card_table.card_of_addr cards x in
  let hit = if st.parallel then true else Card_cache.access st.card_cache idx in
  Telemetry.hit_card_mark tel;
  Cost.mutator_cat cost Cost.Card_mark
    (Cost.c_mark_card + if hit then 0 else Cost.c_card_miss);
  State.step st;
  Card_table.mark_card cards idx

(* Remembered-set alternative (Section 3.1 ablation): remember the exact
   object instead of dirtying its card.  The dedup flag sits in a side
   table with the same locality concerns as the card table. *)
let mutator_record_remset st ~cost ~tel x =
  let rs = Heap.remset st.heap in
  let hit =
    if st.parallel then true
    else Card_cache.access st.remset_cache (Layout.granule_index x)
  in
  Cost.mutator_cat cost Cost.Card_mark
    (Cost.c_remset_test + if hit then 0 else Cost.c_card_miss);
  State.step st;
  if Remset.record rs x then begin
    Telemetry.hit_remset_record tel;
    Cost.mutator_cat cost Cost.Card_mark Cost.c_remset_append
  end

(* Inter-generational tracking as configured (simple promotion only). *)
let track_intergen st ~cost ~tel x =
  match st.cfg.Gc_config.intergen with
  | Gc_config.Card_marking -> mutator_mark_card st ~cost ~tel x
  | Gc_config.Remembered_set -> mutator_record_remset st ~cost ~tel x

(* ------------------------------------------------------------------ *)
(* The write barrier: Update (Figure 1 / Figure 4)                     *)
(* ------------------------------------------------------------------ *)

let update st m ~x ~i ~y =
  let cost = State.mcost st m in
  let tel = State.mtelemetry st m in
  Telemetry.hit_barrier tel;
  Cost.mutator_cat cost Cost.Barrier_fast Cost.c_barrier_check;
  Observatory.maybe_sample st;
  let charge = Cost.mutator_cat cost Cost.Barrier_slow in
  let in_sync = not (Status.equal (Mutator.status m) Status.Async) in
  (match mode_of st with
  | Gc_config.Non_generational ->
      (* DLG barrier: gray old and new values between the handshakes, gray
         the old value (deletion barrier) while the collector traces. *)
      if in_sync then begin
        let old = Heap.get_slot st.heap x i in
        State.step st;
        charged_mark_gray st ~charge ~tel ~sync:true old;
        charged_mark_gray st ~charge ~tel ~sync:true y
      end
      else if Atomic.get st.tracing then begin
        let old = Heap.get_slot st.heap x i in
        State.step st;
        charged_mark_gray st ~charge ~tel ~sync:false old
      end;
      State.step st;
      Heap.set_slot st.heap x i y;
      Cost.mutator cost Cost.c_store
  | Gc_config.Generational ->
      (* Figure 1: card marking only during async (Section 7.1); the
         sync1/sync2 graying of both values — including yellow ones via
         MarkGray's exception — covers inter-generational pointers created
         in that window. *)
      if in_sync then begin
        let old = Heap.get_slot st.heap x i in
        State.step st;
        charged_mark_gray st ~charge ~tel ~sync:true old;
        charged_mark_gray st ~charge ~tel ~sync:true y
      end
      else if Atomic.get st.tracing then begin
        let old = Heap.get_slot st.heap x i in
        State.step st;
        charged_mark_gray st ~charge ~tel ~sync:false old;
        track_intergen st ~cost ~tel x
      end
      else track_intergen st ~cost ~tel x;
      State.step st;
      Heap.set_slot st.heap x i y;
      Cost.mutator cost Cost.c_store
  | Gc_config.Generational_aging _ | Gc_config.Generational_adaptive ->
      (* Figure 4: cards are marked in every phase, and strictly after the
         store — the ordering half of the Section 7.2 race argument.
         Under real domains the card mark is an atomic (SC) store, so the
         plain slot store above it cannot be reordered past it. *)
      if in_sync then begin
        let old = Heap.get_slot st.heap x i in
        State.step st;
        charged_mark_gray st ~charge ~tel ~sync:true old;
        charged_mark_gray st ~charge ~tel ~sync:true y
      end
      else if Atomic.get st.tracing then begin
        let old = Heap.get_slot st.heap x i in
        State.step st;
        charged_mark_gray st ~charge ~tel ~sync:false old
      end;
      State.step st;
      Heap.set_slot st.heap x i y;
      Cost.mutator cost Cost.c_store;
      mutator_mark_card st ~cost ~tel x)

(* ------------------------------------------------------------------ *)
(* Cooperate (Figure 1)                                                *)
(* ------------------------------------------------------------------ *)

let cooperate st m =
  let cost = State.mcost st m in
  Cost.mutator_cat cost Cost.Barrier_fast Cost.c_cooperate;
  (* Event recorder: count the safepoint poll (armed runs only; [ring]
     is [None] otherwise, so this is one option check). *)
  (match Mutator.ring m with
  | Some r -> Flight_recorder.poll r
  | None -> ());
  if not (Status.equal (Mutator.status m) (Atomic.get st.status_c)) then begin
    let tel = State.mtelemetry st m in
    let target = Atomic.get st.status_c in
    if Status.equal (Mutator.status m) Status.Sync2 then
      (* Responding to the third handshake: mark own roots gray.  The
         mutator is still in sync2 here, so in [Generational] mode the
         yellow exception applies to its roots as well. *)
      Mutator.iter_roots m (fun r ->
          Cost.mutator_cat cost Cost.Barrier_slow Cost.c_root;
          State.step st;
          charged_mark_gray st
            ~charge:(Cost.mutator_cat cost Cost.Barrier_slow)
            ~tel ~sync:true r);
    State.step st;
    (* The ack: an atomic store, so under real domains the root-marking
       writes above are published to the collector's wait_handshake
       poll. *)
    Mutator.set_status m target;
    Telemetry.hit_ack tel;
    match Mutator.ring m with
    | Some r ->
        Flight_recorder.instant r Flight_recorder.Ack
          ~a:(Status.index target) ~at:(Flight_recorder.ring_now r)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Create's color choice                                               *)
(* ------------------------------------------------------------------ *)

let allocation_color st =
  match mode_of st with
  | Gc_config.Non_generational ->
      (* Remark 5.1 baseline.  The create color must follow the phase as
         the *mutators* can witness it: before the third handshake a
         mutator's write barrier may not be active yet, so objects created
         then must get the clear color — they are protected by the root
         marking at the mutator's own third-handshake response (and by the
         sync-window barrier once it is active).  Only once every mutator
         has marked its roots (trace) — and through the sweep, whose
         end-of-cycle toggle makes the mark color the next clear color —
         do creations take the mark color.  Using a collector-side
         "cycle started" flag here instead loses objects: a mark-colored
         object created before the first handshake is never traced, and
         root marking does not shade it, so the clear chain hanging off it
         is reclaimed while reachable. *)
      if Atomic.get st.tracing || Atomic.get st.sweeping then
        st.allocation_color
      else st.clear_color
  | Gc_config.Generational | Gc_config.Generational_aging _
  | Gc_config.Generational_adaptive ->
      st.allocation_color

(* ------------------------------------------------------------------ *)
(* Handshakes (Figure 3)                                               *)
(* ------------------------------------------------------------------ *)

let post_handshake st s =
  Cost.set_phase st.cost Cost.Handshake;
  Cost.collector st.cost
    (Cost.c_handshake * (1 + State.count_active_mutators st));
  Substrate.yield ();
  (* The post is the release store every mutator's cooperate acquires:
     whatever the collector wrote before (color toggles, card clears) is
     visible to a mutator once it has adopted [s]. *)
  Atomic.set st.status_c s;
  (* On the simulator the latency sample and the recorder read the same
     cost-unit clock with no charge between, so the recorded latency
     equals the handshake span exactly. *)
  let at = State.now_units st in
  Telemetry.handshake_posted st.telemetry ~at;
  Flight_recorder.note_handshake_posted st.recorder

let wait_handshake st =
  Substrate.wait_until (fun () ->
      let target = Atomic.get st.status_c in
      State.for_all_active_mutators st (fun m ->
          Status.equal (Mutator.status m) target));
  let at = State.now_units st in
  Telemetry.handshake_completed st.telemetry (Atomic.get st.status_c) ~at;
  Flight_recorder.note_handshake_completed st.recorder
    ~status:(Status.index (Atomic.get st.status_c))

let switch_allocation_clear_colors st =
  (* Two separate stores, as in Figure 3; a mutator allocating between them
     is protected by root marking at the third handshake. *)
  let tmp = st.clear_color in
  st.clear_color <- st.allocation_color;
  State.step st;
  st.allocation_color <- tmp;
  note st Flight_recorder.Colors_toggled ~a:0

(* ------------------------------------------------------------------ *)
(* The collection crew                                                 *)
(* ------------------------------------------------------------------ *)

(* Card scan, trace and sweep run on the [Gc_par] crew.  Worker 0 is the
   collector process itself: alone under the simulator and, by default,
   on the domains substrate, where [--gc-workers] > 1 adds helper
   domains.  Worker 0's ledgers and page set alias the shared ones, so
   phase attribution is exact; helpers charge private ledgers merged at
   cycle end.  Per-cycle statistics go to the worker's partial counters,
   folded into the cycle record at each phase barrier.  Helper page
   touches go to private sets unioned into the shared one at cycle end,
   before [pages_touched] is read: the touched-page union over any
   partition of the work equals worker 0's set at width 1, so the count
   is exact at every crew width.  [Observatory] census sampling needs a
   quiescent heap walk: the simulator samples at worker 0's pacing
   charges, the domains substrate at phase boundaries
   ([Observatory.phase_sample]). *)

(* Pacing charge: worker 0 charges through [charge_tick]; a helper
   charges its private ledger (its own domain is paced by the hardware,
   and the pacing counter and census belong to the collector process). *)
let tick st (w : Gc_par.worker) k =
  if w.Gc_par.wid = 0 then pace_charge st w k else Cost.collector w.Gc_par.cost k

(* The collector's MarkGray on worker [w]'s behalf: a shading is charged
   to the worker's ledger, outside the pacing counter. *)
let worker_mark_gray st (w : Gc_par.worker) y =
  if mark_gray st ~tel:w.Gc_par.tel ~sync:false y then
    Cost.collector w.Gc_par.cost Cost.c_mark_gray

(* ------------------------------------------------------------------ *)
(* ClearCards (Figure 3 and Figure 6)                                  *)
(* ------------------------------------------------------------------ *)

let cards_covering_capacity st =
  let cs = Card_table.card_size (Heap.cards st.heap) in
  (Heap.capacity st.heap + cs - 1) / cs

let touch_card_table_scan st pages n =
  let base = (Heap.layout st.heap).Layout.card_table_base in
  Page_set.touch_range pages base n

(* Figure 3 (simple promotion): clear a dirty card and gray the black
   (old) objects on it, seeding the partial trace with the sources of all
   potential inter-generational pointers.  Marks can be cleared
   unconditionally: every survivor is promoted, so surviving
   inter-generational pointers become intra-generational.

   The heap lock (domains only) brackets the card's object walk:
   [iter_objects_on_card] reads the block structure, which mutator
   cache refills may be splitting concurrently. *)
let scan_card_simple st (w : Gc_par.worker) card =
  let heap = st.heap in
  let pages = w.Gc_par.pages in
  Card_table.clear_card (Heap.cards heap) card;
  State.step st;
  State.lock_heap st;
  Heap.iter_objects_on_card heap ~scratch:w.Gc_par.scratch card (fun x ->
      tick st w Cost.c_card_obj;
      Page_set.touch_range pages x Layout.granule;
      State.step st;
      if Color.equal (Heap.color heap x) Color.Black then begin
        w.Gc_par.intergen_scanned <- w.Gc_par.intergen_scanned + 1;
        w.Gc_par.card_scan_bytes <- w.Gc_par.card_scan_bytes + Heap.size heap x;
        Page_set.touch_heap_object pages ~addr:x ~size:(Heap.size heap x);
        Page_set.touch_color pages x;
        Heap.set_color heap x Color.Gray;
        Gray_queue.push st.gray x;
        Cost.collector w.Gc_par.cost Cost.c_mark_gray
      end);
  State.unlock_heap st

(* Figure 6 (aging): scan the pointers of the objects on a dirty card,
   gray the targets of old ones, and keep the card dirty iff it still
   references a young object.  The default is the 3-step protocol of
   Section 7.2 — clear first, then scan, then re-mark — which tolerates a
   concurrent mutator store; [naive] ([naive_card_clear]) selects the
   broken check-then-clear ordering so tests can exhibit the race the
   paper describes.  Each card has exactly one owner in the crew, so the
   sequence races only the mutators it was designed to race. *)
let scan_card_aging st (w : Gc_par.worker) ~naive card =
  let heap = st.heap in
  let cards = Heap.cards heap in
  let pages = w.Gc_par.pages in
  if not naive then begin
    (* Step 1: clear the mark before checking. *)
    Card_table.clear_card cards card;
    State.step st
  end;
  (* Step 2: scan the objects on the card.  Old objects' young targets
     are grayed (they seed the partial trace).  Young objects' targets
     are NOT grayed — a dead young parent must not keep its children
     alive — but they do keep the card dirty: the parent may be
     promoted by this very cycle's sweep, turning its pointers
     inter-generational while its card mark would otherwise already be
     gone.  (Figure 6 only scans old objects; the accompanying text —
     "if no young object is referenced from a given card, the collector
     clears the card's mark" — requires this wider check, and the
     narrower one demonstrably loses objects: see test_props.ml.) *)
  let has_young = ref false in
  State.lock_heap st;
  Heap.iter_objects_on_card heap ~scratch:w.Gc_par.scratch card (fun x ->
      tick st w Cost.c_card_obj;
      Page_set.touch_range pages x Layout.granule;
      Page_set.touch_age pages x;
      State.step st;
      let old = is_old st x in
      w.Gc_par.card_scan_bytes <- w.Gc_par.card_scan_bytes + Heap.size heap x;
      if old then begin
        w.Gc_par.intergen_scanned <- w.Gc_par.intergen_scanned + 1;
        Page_set.touch_heap_object pages ~addr:x ~size:(Heap.size heap x)
      end;
      for i = 0 to Heap.n_slots heap x - 1 do
        tick st w Cost.c_scan_slot;
        let y = Heap.get_slot heap x i in
        State.step st;
        if y <> Heap.nil then begin
          if old then begin
            worker_mark_gray st w y;
            Page_set.touch_color pages y
          end;
          Page_set.touch_age pages y;
          if not (is_old st y) then has_young := true
        end
      done);
  State.unlock_heap st;
  (* Step 3: keep the mark consistent with what the scan found. *)
  if naive then begin
    if not !has_young then begin
      State.step st;
      Card_table.clear_card cards card
    end
  end
  else if !has_young then begin
    State.step st;
    Card_table.mark_card cards card;
    Cost.collector w.Gc_par.cost Cost.c_mark_card
  end

(* Card ownership: round-robin chunks of 64 cards (one card-table cache
   line's worth), so dirty-card clusters spread across the crew without
   splitting any single card.  Worker [w] walks chunks w, w+n, w+2n, ...;
   at width 1 that is every card in order.  Reading the card table costs
   ~one unit per cache line, charged at each chunk start.  Every worker
   touches the whole card-table range, so the union is the one range a
   single worker touches. *)
let card_chunk = 64

let card_scan st (w : Gc_par.worker) =
  Cost.set_phase w.Gc_par.cost Cost.Card_scan;
  let cards = Heap.cards st.heap in
  let aging =
    match mode_of st with
    | Gc_config.Generational_aging _ | Gc_config.Generational_adaptive -> true
    | Gc_config.Generational | Gc_config.Non_generational -> false
  in
  let naive = st.cfg.Gc_config.naive_card_clear in
  let n = cards_covering_capacity st in
  touch_card_table_scan st w.Gc_par.pages n;
  let stride = card_chunk * st.par.Gc_par.n_workers in
  let first = ref (card_chunk * w.Gc_par.wid) in
  while !first < n do
    tick st w 1;
    for card = !first to Stdlib.min n (!first + card_chunk) - 1 do
      if Card_table.is_dirty cards card then begin
        Telemetry.hit_dirty_card w.Gc_par.tel;
        w.Gc_par.dirty_cards <- w.Gc_par.dirty_cards + 1;
        tick st w Cost.c_card_visit;
        if aging then scan_card_aging st w ~naive card
        else scan_card_simple st w card
      end
    done;
    first := !first + stride
  done

let clear_cards st cycle =
  card_scan st st.par.Gc_par.workers.(0);
  Gc_par.drain_partials st.par cycle

(* Remembered-set analogue of ClearCards (simple promotion), run by the
   collector process alone: drain the exact set of recorded objects and
   gray the black ones; no card scans, no re-marking protocol — every
   surviving inter-generational pointer becomes intra-generational at the
   coming promotion, exactly as in the simple card algorithm. *)
let scan_remset_simple st cycle =
  Cost.set_phase st.cost Cost.Card_scan;
  let heap = st.heap in
  let entries = Remset.drain (Heap.remset heap) in
  cycle.Gc_stats.dirty_cards <- List.length entries;
  List.iter
    (fun x ->
      Telemetry.hit_dirty_card st.telemetry;
      charge_tick st Cost.c_card_obj;
      Page_set.touch_remset st.pages x;
      State.step st;
      (* entries can be stale: the recorded object may have died in the
         previous cycle (its dedup flag was dropped at free time) *)
      State.lock_heap st;
      if Heap.is_object heap x && Color.equal (Heap.color heap x) Color.Black
      then begin
        cycle.Gc_stats.intergen_scanned <- cycle.Gc_stats.intergen_scanned + 1;
        cycle.Gc_stats.card_scan_bytes <-
          cycle.Gc_stats.card_scan_bytes + Heap.size heap x;
        Page_set.touch_heap_object st.pages ~addr:x ~size:(Heap.size heap x);
        Page_set.touch_color st.pages x;
        Heap.set_color heap x Color.Gray;
        Gray_queue.push st.gray x;
        Cost.collector st.cost Cost.c_mark_gray
      end;
      State.unlock_heap st)
    entries

(* ------------------------------------------------------------------ *)
(* InitFullCollection (Figure 3 and Figure 6)                          *)
(* ------------------------------------------------------------------ *)

(* Recolor the old generation (black, plus any gray leftovers) to the
   allocation color so the imminent toggle exposes it to the trace and the
   sweep.  The simple algorithm also wipes the card table (all pointers
   become intra-generational); the aging algorithm keeps the dirty bits —
   old objects stay old through a full collection, so their
   inter-generational pointers remain relevant (Section 6).

   Parallel mode takes the heap lock per block step: refills split blocks
   ahead of the cursor, but a split only introduces boundaries and the
   end boundary of the current block survives, so the cursor advance
   stays valid across the unlock (the same argument the sweep relies
   on). *)
let init_full_collection st ~clear_card_marks =
  Cost.set_phase st.cost Cost.Clear;
  let heap = st.heap in
  let space = Heap.space heap in
  let addr = ref 0 in
  while !addr < Heap.capacity heap do
    charge_tick st 2;
    State.lock_heap st;
    (* header-to-header walk: the cursor is a block start by construction,
       so the bounds-check-free accessors apply *)
    let size = Space.unsafe_size space !addr in
    (if Space.unsafe_kind space !addr = Space.Allocated then begin
       Page_set.touch_color st.pages !addr;
       let c = Heap.color heap !addr in
       if Color.equal c Color.Black || Color.equal c Color.Gray then
         Heap.set_color heap !addr st.allocation_color
     end);
    State.unlock_heap st;
    addr := !addr + size
  done;
  if clear_card_marks then
    match st.cfg.Gc_config.intergen with
    | Gc_config.Card_marking ->
        let cards = Heap.cards heap in
        let n = cards_covering_capacity st in
        touch_card_table_scan st st.pages n;
        charge_tick st (1 + (n / 64));
        Card_table.clear_all cards
    | Gc_config.Remembered_set ->
        let rs = Heap.remset heap in
        charge_tick st (1 + (Remset.size rs / 8));
        Remset.clear rs

(* ------------------------------------------------------------------ *)
(* Trace (Figure 2 / Figure 5: MarkBlack)                              *)
(* ------------------------------------------------------------------ *)

let trace_target st =
  match mode_of st with
  | Gc_config.Non_generational ->
      st.allocation_color (* mark color; no persistent black generation *)
  | Gc_config.Generational | Gc_config.Generational_aging _
  | Gc_config.Generational_adaptive ->
      Color.Black

let mark_black st (w : Gc_par.worker) x =
  let heap = st.heap in
  let target = trace_target st in
  let pages = w.Gc_par.pages in
  if not (Color.equal (Heap.color heap x) target) then begin
    tick st w Cost.c_trace_obj;
    Page_set.touch_heap_object pages ~addr:x ~size:(Heap.size heap x);
    Page_set.touch_color pages x;
    for i = 0 to Heap.n_slots heap x - 1 do
      tick st w Cost.c_scan_slot;
      let y = Heap.unsafe_get_slot heap x i in
      State.step st;
      if y <> Heap.nil then begin
        worker_mark_gray st w y;
        Page_set.touch_color pages y
      end
    done;
    State.step st;
    Heap.set_color heap x target;
    (* two workers can race on a duplicate entry and both blacken [x];
       the recolor is idempotent and the double count is bounded by the
       (rare) duplicates the gray queue already tolerates *)
    w.Gc_par.objects_traced <- w.Gc_par.objects_traced + 1;
    (* Simple promotion (Figure 2): blackening IS promotion — every traced
       survivor joins the old generation.  Aging modes promote in the
       sweep instead; the non-generational mark color is not a generation. *)
    match mode_of st with
    | Gc_config.Generational ->
        w.Gc_par.promotions <- w.Gc_par.promotions + 1
    | Gc_config.Non_generational | Gc_config.Generational_aging _
    | Gc_config.Generational_adaptive ->
        ()
  end

(* Worker [w]'s trace: pop its own work (one unit per pop attempt, the
   final empty one included), then the shared queue where mutator barrier
   pushes land, then steal from the other workers; when everything looks
   dry, register idle and run the Gc_par termination protocol.

   At width 1 there is no deque and no one to steal from: the gray set is
   the shared queue and every shading publishes into it atomically, so
   "the queue is empty" coincides with "no gray object exists", which by
   the snapshot argument of the DLG proof means the trace is complete —
   and the termination check succeeds at once.  Objects shaded by a
   mutator after this check are dead (every live object is already
   marked); they ride through the sweep as gray floating garbage and are
   normalised back to the allocation color there. *)
let trace st (w : Gc_par.worker) =
  Cost.set_phase w.Gc_par.cost Cost.Trace;
  let par = st.par in
  let n = par.Gc_par.n_workers in
  let wid = w.Gc_par.wid in
  let gray = st.gray in
  let ring = w.Gc_par.ring in
  (* recorder timestamp, 0 when the recorder is disarmed (one option
     check — the branch every instrumented site pays) *)
  let fnow () =
    match ring with Some r -> Flight_recorder.ring_now r | None -> 0
  in
  let fspan kind ~a ~t0 =
    match ring with
    | Some r ->
        Flight_recorder.span r kind ~a ~t0 ~t1:(Flight_recorder.ring_now r)
    | None -> ()
  in
  (* per-worker deterministic sequence over the n-1 other workers (no
     shared rng state) *)
  let rng = ref ((wid * 0x9E3779B9) lor 1) in
  let next_victim () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    let v = !rng mod (n - 1) in
    if v >= wid then v + 1 else v
  in
  let rec run () =
    tick st w 1;
    match Gray_queue.pop_worker gray ~w:wid with
    | Some x ->
        mark_black st w x;
        run ()
    | None when n = 1 -> idle ()
    | None -> (
        match Gray_queue.pop gray with
        | Some x ->
            mark_black st w x;
            run ()
        | None -> try_steal (2 * (n - 1)))
  and try_steal budget =
    if budget = 0 then idle ()
    else begin
      let t0 = fnow () in
      match Gray_queue.steal gray ~victim:(next_victim ()) with
      | Some x ->
          w.Gc_par.steals <- w.Gc_par.steals + 1;
          fspan Flight_recorder.Steal ~a:1 ~t0;
          tick st w 1;
          mark_black st w x;
          run ()
      | None ->
          w.Gc_par.steal_failures <- w.Gc_par.steal_failures + 1;
          fspan Flight_recorder.Steal ~a:0 ~t0;
          try_steal (budget - 1)
    end
  and idle () =
    let t0 = fnow () in
    Atomic.incr par.Gc_par.idle;
    wait_idle t0
  and wait_idle t0 =
    (* Park with the substrate's spin-then-sleep backoff (bare cpu_relax
       here starves the very workers we wait on when cores are scarce)
       until there is work, a termination verdict, or this worker itself
       declares termination. *)
    Substrate.wait_until (fun () ->
        Atomic.get par.Gc_par.term
        || (not (Gray_queue.is_empty gray))
        || Gc_par.try_terminate par ~queues_empty:(fun () ->
               Gray_queue.is_empty gray));
    if Atomic.get par.Gc_par.term then
      fspan Flight_recorder.Idle ~a:wid ~t0
    else if not (Gray_queue.is_empty gray) then begin
      (* activity stamp before the idle decrement — the ordering the
         termination check's soundness argument needs *)
      Gc_par.leave_idle par;
      fspan Flight_recorder.Idle ~a:wid ~t0;
      run ()
    end
    else wait_idle t0
  in
  run ()

(* ------------------------------------------------------------------ *)
(* Sweep (Figure 2 / Figure 5)                                         *)
(* ------------------------------------------------------------------ *)

(* Sweep-region boundaries: n+1 block-aligned addresses computed under
   the heap lock.  They stay block starts for the whole phase — splits
   only add boundaries, merges only coalesce blocks strictly inside one
   region (each worker suppresses the leftward merge at its region
   start), and mutator-triggered growth is blocked while [collecting]
   is up.  At width 1 the one region is the whole heap. *)
let compute_sweep_bounds st =
  let n = st.par.Gc_par.n_workers in
  let space = Heap.space st.heap in
  let cap = Heap.capacity st.heap in
  let bounds = Array.make (n + 1) 0 in
  State.lock_heap st;
  for i = 1 to n - 1 do
    bounds.(i) <- Space.find_block_start space (i * cap / n)
  done;
  State.unlock_heap st;
  bounds.(n) <- cap;
  for i = 1 to n do
    if bounds.(i) < bounds.(i - 1) then bounds.(i) <- bounds.(i - 1)
  done;
  st.par.Gc_par.sweep_bounds <- bounds

(* Freed blocks between two bumps of [State.sweep_progress]: often enough
   that a stalled allocator retries soon after memory comes back, rarely
   enough that the wake-ups stay cheap next to the sweep itself. *)
let progress_stride = 64

let sweep st (w : Gc_par.worker) =
  Cost.set_phase w.Gc_par.cost Cost.Sweep;
  let heap = st.heap in
  let space = Heap.space heap in
  let ages = Heap.ages heap in
  let tenure = survivals_to_tenure st in
  let bounds = st.par.Gc_par.sweep_bounds in
  let lo = bounds.(w.Gc_par.wid) in
  let hi = bounds.(w.Gc_par.wid + 1) in
  let pages = w.Gc_par.pages in
  let addr = ref lo in
  let unannounced = ref 0 in
  while !addr < hi do
    State.lock_heap st;
    (* header-to-header walk, so the bounds-check-free accessors apply;
       merge_free_prev and free only ever move block boundaries at or
       before the cursor, never ahead of it.  On domains the lock covers
       one block step; a refill splitting a free block ahead of the
       cursor between steps preserves this block's end boundary, so the
       advance below stays a block start. *)
    let size = Space.unsafe_size space !addr in
    (* sweeping is linear in bytes: header cost plus a per-64-byte term *)
    tick st w (Cost.c_sweep_block + (size / 64));
    let x = !addr in
    (match Space.unsafe_kind space x with
    | Space.Free ->
        (* merge runs of free blocks leftward as the cursor passes, but
           never across the region seam: the merge at [lo] would extend
           a block the previous worker's cursor may still stand on *)
        if x > lo then ignore (Heap.merge_free_prev heap x : int)
    | Space.Allocated ->
        Page_set.touch_color pages x;
        let c = Heap.color heap x in
        if Color.equal c Color.Blue then
          (* a reserved block in some mutator's allocation cache (real
             domains only): not an object yet — leave it alone *)
          ()
        else if Color.equal c st.clear_color then begin
          tick st w Cost.c_free;
          w.Gc_par.objects_freed <- w.Gc_par.objects_freed + 1;
          w.Gc_par.bytes_freed <- w.Gc_par.bytes_freed + size;
          (* the free-list link is written into the block itself *)
          Page_set.touch_range pages x Layout.granule;
          Heap.unsafe_free heap x;
          if x > lo then ignore (Heap.merge_free_prev heap x : int);
          incr unannounced
        end
        else begin
          match mode_of st with
          | Gc_config.Non_generational | Gc_config.Generational ->
              (* Late-shaded floating garbage: give it the allocation color
                 so it becomes collectible next cycle instead of leaking as
                 an eternal gray. *)
              if Color.equal c Color.Gray then
                Heap.set_color heap x st.allocation_color
          | Gc_config.Generational_aging _ | Gc_config.Generational_adaptive ->
              (* Figure 5: promoted objects stay black and stop aging;
                 young survivors (traced black this cycle, or created
                 yellow during it, or floating gray) are recolored to the
                 allocation color and aged.

                 Promotion is monotone: a promoted object's age freezes at
                 the sentinel 255, so a *rising* adaptive threshold can
                 never demote it.  De-promotion is unsound — it turns an
                 old->young edge loose on a card that was legitimately
                 cleaned while the edge was old->old, and the young target
                 is then reclaimed while reachable (found by an 8000-seed
                 hunt; regression in test_props.ml). *)
              let age = Age_table.get ages x in
              if Color.equal c Color.Black && (age = 255 || age + 1 >= tenure)
              then begin
                if age <> 255 then begin
                  w.Gc_par.promotions <- w.Gc_par.promotions + 1;
                  Age_table.set ages x 255;
                  Page_set.touch_age pages x
                end
              end
              else begin
                if not (Color.equal c st.allocation_color) then
                  Heap.set_color heap x st.allocation_color;
                (* never age a young object into the sentinel *)
                if age < 254 then Age_table.incr ages x;
                Page_set.touch_age pages x;
                Cost.collector w.Gc_par.cost 1
              end
        end);
    State.unlock_heap st;
    (* announced after the unlock, so a woken allocator's retry does not
       queue behind this block's lock hold *)
    if !unannounced = progress_stride then begin
      unannounced := 0;
      Atomic.incr st.sweep_progress
    end;
    addr := !addr + size
  done;
  Atomic.incr st.sweep_progress

(* ------------------------------------------------------------------ *)
(* Crew phases                                                         *)
(* ------------------------------------------------------------------ *)

let run_share st w = function
  | Gc_par.Idle -> ()
  | Gc_par.Cards -> card_scan st w
  | Gc_par.Trace -> trace st w
  | Gc_par.Sweep -> sweep st w

(* Orchestrator side: open a phase, run worker 0's share inline, wait
   for the helpers' barrier (already passed at width 1), fold the
   partials into the cycle. *)
let run_phase st cycle p =
  let par = st.par in
  Gc_par.open_phase par p;
  run_share st par.Gc_par.workers.(0) p;
  Substrate.wait_until (fun () -> Gc_par.helpers_done par);
  Gc_par.drain_partials par cycle;
  par.Gc_par.phase <- Gc_par.Idle

(* Flight-recorder tag for a crew phase — the same numbering the
   collector ring's cycle segments use (0 clear, 1 cards, 2 trace,
   3 sweep), so one name table serves every track in the export. *)
let phase_tag = function
  | Gc_par.Idle -> 0
  | Gc_par.Cards -> 1
  | Gc_par.Trace -> 2
  | Gc_par.Sweep -> 3

(* Helper-domain body: park on the epoch counter, run each opened
   phase's share, check in at the barrier.  Spawned once per run by the
   driver (daemon domains, like the collector). *)
let gc_worker_loop st wid =
  Gray_queue.set_worker_id st.gray wid;
  let par = st.par in
  let w = par.Gc_par.workers.(wid) in
  let seen = ref (Atomic.get par.Gc_par.epoch) in
  while not (Atomic.get st.shutdown) do
    Substrate.wait_until (fun () ->
        Atomic.get st.shutdown || Atomic.get par.Gc_par.epoch <> !seen);
    if Atomic.get par.Gc_par.epoch <> !seen then begin
      seen := Atomic.get par.Gc_par.epoch;
      let phase = par.Gc_par.phase in
      let t0 =
        match w.Gc_par.ring with
        | Some r -> Flight_recorder.ring_now r
        | None -> 0
      in
      run_share st w phase;
      (match w.Gc_par.ring with
      | Some r when phase <> Gc_par.Idle ->
          Flight_recorder.span r Flight_recorder.Phase ~a:(phase_tag phase)
            ~t0 ~t1:(Flight_recorder.ring_now r)
      | _ -> ());
      Atomic.incr par.Gc_par.done_count
    end
  done

(* ------------------------------------------------------------------ *)
(* Census: out-of-band instrumentation (no cost, no pages, no yields)  *)
(* ------------------------------------------------------------------ *)

(* Count the reclamation candidates — the clear-colored objects — at the
   moment the trace is about to start (out of band: no cost, no pages, no
   yields).  Taken after the color toggle, so "% freed in partial
   collections" (Figure 12) has a well-defined denominator that later
   allocations (yellow) cannot perturb.  Reserved cache blocks are
   allocated-but-Blue and never clear-colored, so they do not count. *)
let census st cycle =
  let heap = st.heap in
  let young_o = ref 0 and young_b = ref 0 in
  State.lock_heap st;
  Heap.iter_objects heap (fun x ->
      if Color.equal (Heap.color heap x) st.clear_color then begin
        incr young_o;
        young_b := !young_b + Heap.size heap x
      end);
  State.unlock_heap st;
  cycle.Gc_stats.young_objects_at_start <- !young_o;
  cycle.Gc_stats.young_bytes_at_start <- !young_b

(* ------------------------------------------------------------------ *)
(* The collection cycle (Figure 2 / Figure 5)                          *)
(* ------------------------------------------------------------------ *)

let run_cycle st ~full =
  let mode = mode_of st in
  let kind =
    match mode with
    | Gc_config.Non_generational -> Gc_stats.Non_gen
    | _ -> if full then Gc_stats.Full else Gc_stats.Partial
  in
  (* Raising [collecting] under the registration lock fences out a
     mutator mid-registration: after this, newcomers wait for the cycle
     to finish (Runtime.new_mutator), so the handshake set is stable
     modulo retirement. *)
  if st.parallel then Mutex.lock st.reg_lock;
  Atomic.set st.collecting true;
  if st.parallel then Mutex.unlock st.reg_lock;
  Atomic.set st.gc_request No_request;
  let window_bytes = Atomic.exchange st.bytes_since_gc 0 in
  let cycle = Gc_stats.begin_cycle st.stats kind in
  (* Figure 22 reports dirty cards as a percentage of "allocated cards":
     the cards covered by the allocation window since the last collection. *)
  cycle.Gc_stats.total_cards <-
    Stdlib.max 1 (window_bytes / Card_table.card_size (Heap.cards st.heap));
  st.cur_cycle <- Some cycle;
  (* Recorder helpers for the collector track: cycle and phase spans
     nest (Cycle > Phase > worker-0 Steal/Idle), which the trace
     export's validator checks; each phase span carries the phase's
     count.  Disarmed: one option check each. *)
  let frc = Flight_recorder.collector_ring st.recorder in
  let fnow () =
    match frc with Some r -> Flight_recorder.ring_now r | None -> 0
  in
  let fspan kind ?b ~a t0 =
    match frc with
    | Some r ->
        Flight_recorder.span r kind ?b ~a ~t0 ~t1:(Flight_recorder.ring_now r)
    | None -> ()
  in
  let cycle_t0 = fnow () in
  Page_set.reset st.pages;
  Gray_queue.clear st.gray;
  Observatory.phase_sample st;
  let work0 = Cost.collector_work st.cost in
  let elapsed0 = Cost.elapsed_multi st.cost in
  let mutator_work0 = Cost.mutator_work st.cost in
  (* clear phase *)
  let clear_t0 = fnow () in
  (match mode with
  | Gc_config.Non_generational -> ()
  | _ ->
      if full then begin
        init_full_collection st
          ~clear_card_marks:(mode = Gc_config.Generational);
        fspan Flight_recorder.Phase ~a:0 clear_t0
      end);
  post_handshake st Status.Sync1;
  wait_handshake st;
  (* mark phase *)
  post_handshake st Status.Sync2;
  let cards_t0 = fnow () in
  (match mode with
  | Gc_config.Non_generational -> ()
  | Gc_config.Generational ->
      (* Figure 2 order: scan and clear cards (or drain the remembered
         set), then toggle — new objects become "yellow" only after the
         inter-generational records are settled. *)
      (match st.cfg.Gc_config.intergen with
      | Gc_config.Card_marking -> run_phase st cycle Gc_par.Cards
      | Gc_config.Remembered_set -> scan_remset_simple st cycle);
      switch_allocation_clear_colors st;
      fspan Flight_recorder.Phase ~a:1 ~b:cycle.Gc_stats.intergen_scanned
        cards_t0
  | Gc_config.Generational_aging _ | Gc_config.Generational_adaptive ->
      (* Figure 5 order: toggle first, then scan cards.  A full collection
         skips the card scan: InitFullCollection already prepared the heap
         and the dirty bits stay for the next partial (Section 6). *)
      switch_allocation_clear_colors st;
      if not full then begin
        run_phase st cycle Gc_par.Cards;
        fspan Flight_recorder.Phase ~a:1 ~b:cycle.Gc_stats.intergen_scanned
          cards_t0
      end);
  wait_handshake st;
  census st cycle;
  Observatory.phase_sample st;
  Atomic.set st.tracing true;
  let trace_t0 = fnow () in
  post_handshake st Status.Async;
  (* mark global roots (attributed to the trace: they seed it) *)
  Cost.set_phase st.cost Cost.Trace;
  let w0 = st.par.Gc_par.workers.(0) in
  List.iter
    (fun g ->
      charge_tick st Cost.c_root;
      worker_mark_gray st w0 g)
    st.globals;
  wait_handshake st;
  (* trace *)
  cycle.Gc_stats.trace_workers <- st.par.Gc_par.n_workers;
  run_phase st cycle Gc_par.Trace;
  fspan Flight_recorder.Phase ~a:2 ~b:cycle.Gc_stats.objects_traced trace_t0;
  Observatory.phase_sample st;
  Telemetry.note_trace_workers st.telemetry cycle.Gc_stats.trace_workers;
  (* [sweeping] is raised before [tracing] drops so the non-generational
     create color never observes a gap between the two phases (a clear
     object created in such a gap, held only in a register, would be
     reclaimed by this very sweep). *)
  Atomic.set st.sweeping true;
  Atomic.set st.tracing false;
  (* sweep *)
  let sweep_t0 = fnow () in
  compute_sweep_bounds st;
  run_phase st cycle Gc_par.Sweep;
  fspan Flight_recorder.Phase ~a:3 ~b:cycle.Gc_stats.objects_freed sweep_t0;
  Observatory.phase_sample st;
  Telemetry.add_promotions st.telemetry cycle.Gc_stats.promotions;
  if cycle.Gc_stats.promotions > 0 then
    note st Flight_recorder.Promoted ~a:cycle.Gc_stats.promotions;
  (match mode with
  | Gc_config.Non_generational ->
      (* Remark 5.1: swap black and white instead of re-whitening.  An
         object created between the toggle and [sweeping] dropping gets
         the new mark color — it floats for one cycle, harmlessly. *)
      switch_allocation_clear_colors st
  | _ -> ());
  Atomic.set st.sweeping false;
  (* Dynamic tenuring (Section 6's future-work hook): promote sooner when
     virtually everything young dies (survivors are proven long-lived);
     let objects age longer when many survive their first collection (they
     may be about to die — premature promotion would park them in the old
     generation until a full collection). *)
  (match mode with
  | Gc_config.Generational_adaptive when kind = Gc_stats.Partial ->
      let young0 = cycle.Gc_stats.young_objects_at_start in
      if young0 > 0 then begin
        let survival =
          1.0
          -. (float_of_int cycle.Gc_stats.objects_freed /. float_of_int young0)
        in
        if survival < 0.03 && st.tenure_threshold > 1 then
          st.tenure_threshold <- st.tenure_threshold - 1
        else if survival > 0.15 && st.tenure_threshold < 7 then
          st.tenure_threshold <- st.tenure_threshold + 1
      end
  | _ -> ());
  (* Fold the helpers' private ledgers into the shared ones before the
     work accounting below reads them, so [cycle.work] counts every
     worker's share; steal counters become run-level telemetry here
     (worker partials were already drained into the cycle record). *)
  Gc_par.merge_ledgers st.par ~cost0:st.cost ~tel0:st.telemetry;
  Telemetry.add_steals st.telemetry cycle.Gc_stats.steals;
  Telemetry.add_steal_failures st.telemetry cycle.Gc_stats.steal_failures;
  cycle.Gc_stats.work <- Cost.collector_work st.cost - work0;
  cycle.Gc_stats.active_span <- Cost.elapsed_multi st.cost - elapsed0;
  (* Union the helpers' private page sets into the shared one (worker 0
     already aliases it): the touched-page union over a partition of the
     work is the same at any crew width. *)
  Gc_par.merge_pages st.par ~dst:st.pages;
  cycle.Gc_stats.pages_touched <- Page_set.count st.pages;
  State.lock_heap st;
  cycle.Gc_stats.live_objects_at_end <- Heap.object_count st.heap;
  cycle.Gc_stats.live_bytes_at_end <- Heap.allocated_bytes st.heap;
  State.unlock_heap st;
  (* Floating garbage the sweep left behind, measured out of band (the
     oracle charges no cost and never yields, so the schedule is
     untouched).  No scheduling point separates this from the sweep's
     last block, so the measure is exactly "what this cycle failed to
     reclaim", not garbage the mutators create later in the window.
     Simulator only: under real domains the mutators keep running, so
     there is no consistent snapshot to take — the cross-check instead
     runs the oracle at quiescence (see Driver). *)
  if not st.parallel then
    Oracle.iter_garbage st (fun x ->
        cycle.Gc_stats.floating_objects <- cycle.Gc_stats.floating_objects + 1;
        cycle.Gc_stats.floating_bytes <-
          cycle.Gc_stats.floating_bytes + Heap.size st.heap x);
  (* Pause-free progress: mutator work performed while this cycle ran. *)
  Telemetry.record_progress st.telemetry
    (Cost.mutator_work st.cost - mutator_work0);
  Cost.set_phase st.cost Cost.Idle;
  Gc_stats.end_cycle st.stats cycle;
  st.cur_cycle <- None;
  Atomic.set st.collecting false;
  (* Post-cycle growth towards the maximum (the paper's 1 MB -> 32 MB):
     (a) keep a fraction of the capacity free — the baseline headroom
     heuristic, identical for every collector; (b) for the generational
     collectors only, grow when a full collection fired before even one
     young-generation window had elapsed since the previous collection —
     the heap is then too tight for generational operation (standard
     young-aware sizing).  The non-generational heap gets no such boost,
     which reproduces the paper's implicit asymmetry: the generational
     heap runs larger (it carries tenured garbage between full
     collections) while the non-generational one stays tight and collects
     more often. *)
  let cap = Heap.capacity st.heap in
  let need =
    int_of_float (st.cfg.Gc_config.grow_headroom_fraction *. float_of_int cap)
  in
  let young = st.cfg.Gc_config.young_bytes in
  let premature_full = kind = Gc_stats.Full && window_bytes < young in
  (* GC-overhead bound (any collector): collections firing more than twice
     per young-generation window mean the heap is thrashing — grow. *)
  let thrashing = window_bytes < young / 2 in
  (if Heap.free_bytes st.heap < need || premature_full || thrashing then begin
     (* grow by half steps: finer capacity granularity keeps trigger
        windows from jumping discontinuously *)
     State.lock_heap st;
     let grown = Heap.grow st.heap ~want_bytes:(Stdlib.max (cap / 2) 65536) in
     State.unlock_heap st;
     if grown then
       note st Flight_recorder.Heap_grown ~a:(Heap.capacity st.heap)
   end);
  fspan Flight_recorder.Cycle ~a:(Gc_stats.kind_index kind)
    ~b:(if full then 1 else 0) cycle_t0;
  cycle

let collector_loop st =
  (* the collector process is crew worker 0: with deques armed, its
     trace pushes go to deque 0 *)
  Gray_queue.set_worker_id st.gray 0;
  while not (Atomic.get st.shutdown) do
    Substrate.wait_until (fun () ->
        Atomic.get st.shutdown || Atomic.get st.gc_request <> No_request);
    if not (Atomic.get st.shutdown) then begin
      let full =
        match Atomic.get st.gc_request with Want_full -> true | _ -> false
      in
      ignore (run_cycle st ~full : Gc_stats.cycle)
    end
  done
