open Otfgc
module Heap = Otfgc_heap.Heap

type t = {
  workload : string;
  mode : string;
  elapsed_multi : int;
  elapsed_uni : int;
  mutator_work : int;
  collector_work : int;
  stall_work : int;
  total_alloc_bytes : int;
  total_alloc_objects : int;
  final_capacity : int;
  n_partial : int;
  n_full : int;
  n_non_gen : int;
  pct_time_gc : float;
  avg_intergen_scanned : float;
  avg_scanned_partial : float;
  avg_scanned_full : float;
  avg_scanned_non_gen : float;
  pct_bytes_freed_partial : float;
  pct_objects_freed_partial : float;
  pct_objects_freed_full : float;
  pct_objects_freed_non_gen : float;
  avg_work_partial : float;
  avg_work_full : float;
  avg_work_non_gen : float;
  avg_objects_freed_partial : float;
  avg_objects_freed_full : float;
  avg_objects_freed_non_gen : float;
  avg_bytes_freed_partial : float;
  avg_bytes_freed_full : float;
  avg_bytes_freed_non_gen : float;
  avg_pages_partial : float;
  avg_pages_full : float;
  avg_pages_non_gen : float;
  pct_dirty_cards : float;
  avg_card_scan_bytes : float;
  avg_floating_objects : float;
  avg_floating_bytes : float;
  max_floating_bytes : int;
}

let fi = float_of_int

(* Percentage of objects/bytes freed relative to what was collectible:
   for partial collections the young census at cycle start, for full and
   non-generational collections everything allocated (freed + survivors). *)
let pct_freed_partial cycles ~bytes =
  let num = ref 0. and den = ref 0. and n = ref 0 in
  List.iter
    (fun c ->
      if c.Gc_stats.kind = Gc_stats.Partial then begin
        incr n;
        if bytes then begin
          num := !num +. fi c.Gc_stats.bytes_freed;
          den := !den +. fi c.Gc_stats.young_bytes_at_start
        end
        else begin
          num := !num +. fi c.Gc_stats.objects_freed;
          den := !den +. fi c.Gc_stats.young_objects_at_start
        end
      end)
    cycles;
  if !den = 0. then 0. else Float.min 100. (!num /. !den *. 100.)

let pct_freed_whole cycles kind =
  let num = ref 0. and den = ref 0. in
  List.iter
    (fun c ->
      if c.Gc_stats.kind = kind then begin
        num := !num +. fi c.Gc_stats.objects_freed;
        den :=
          !den +. fi (c.Gc_stats.objects_freed + c.Gc_stats.live_objects_at_end)
      end)
    cycles;
  if !den = 0. then 0. else !num /. !den *. 100.

let of_runtime ~workload rt =
  let st = Runtime.state rt in
  let stats = Runtime.stats rt in
  let cost = (State.totals st).cost in
  let cycles = Gc_stats.cycles stats in
  let mean kind f = Gc_stats.mean stats kind f in
  let heap = Runtime.heap rt in
  let elapsed_multi = Cost.elapsed_multi cost in
  {
    workload;
    mode = Gc_config.mode_name st.State.cfg.Gc_config.mode;
    elapsed_multi;
    elapsed_uni = Cost.elapsed_uni cost;
    mutator_work = Cost.mutator_work cost;
    collector_work = Cost.collector_work cost;
    stall_work = Cost.stall_work cost;
    total_alloc_bytes = Heap.total_allocated_bytes heap;
    total_alloc_objects = Heap.total_allocated_objects heap;
    final_capacity = Heap.capacity heap;
    n_partial = Gc_stats.count stats Gc_stats.Partial;
    n_full = Gc_stats.count stats Gc_stats.Full;
    n_non_gen = Gc_stats.count stats Gc_stats.Non_gen;
    pct_time_gc =
      (if elapsed_multi = 0 then 0.
       else
         List.fold_left (fun acc c -> acc +. fi c.Gc_stats.active_span) 0. cycles
         /. fi elapsed_multi *. 100.);
    avg_intergen_scanned =
      mean Gc_stats.Partial (fun c -> fi c.Gc_stats.intergen_scanned);
    avg_scanned_partial =
      mean Gc_stats.Partial (fun c -> fi c.Gc_stats.objects_traced);
    avg_scanned_full = mean Gc_stats.Full (fun c -> fi c.Gc_stats.objects_traced);
    avg_scanned_non_gen =
      mean Gc_stats.Non_gen (fun c -> fi c.Gc_stats.objects_traced);
    pct_bytes_freed_partial = pct_freed_partial cycles ~bytes:true;
    pct_objects_freed_partial = pct_freed_partial cycles ~bytes:false;
    pct_objects_freed_full = pct_freed_whole cycles Gc_stats.Full;
    pct_objects_freed_non_gen = pct_freed_whole cycles Gc_stats.Non_gen;
    avg_work_partial = mean Gc_stats.Partial (fun c -> fi c.Gc_stats.work);
    avg_work_full = mean Gc_stats.Full (fun c -> fi c.Gc_stats.work);
    avg_work_non_gen = mean Gc_stats.Non_gen (fun c -> fi c.Gc_stats.work);
    avg_objects_freed_partial =
      mean Gc_stats.Partial (fun c -> fi c.Gc_stats.objects_freed);
    avg_objects_freed_full =
      mean Gc_stats.Full (fun c -> fi c.Gc_stats.objects_freed);
    avg_objects_freed_non_gen =
      mean Gc_stats.Non_gen (fun c -> fi c.Gc_stats.objects_freed);
    avg_bytes_freed_partial =
      mean Gc_stats.Partial (fun c -> fi c.Gc_stats.bytes_freed);
    avg_bytes_freed_full = mean Gc_stats.Full (fun c -> fi c.Gc_stats.bytes_freed);
    avg_bytes_freed_non_gen =
      mean Gc_stats.Non_gen (fun c -> fi c.Gc_stats.bytes_freed);
    avg_pages_partial = mean Gc_stats.Partial (fun c -> fi c.Gc_stats.pages_touched);
    avg_pages_full = mean Gc_stats.Full (fun c -> fi c.Gc_stats.pages_touched);
    avg_pages_non_gen =
      mean Gc_stats.Non_gen (fun c -> fi c.Gc_stats.pages_touched);
    pct_dirty_cards =
      (* dirty marks can sit outside the allocation window (old-region
         stores), so clamp the ratio the way the paper's counters would *)
      mean Gc_stats.Partial (fun c ->
          if c.Gc_stats.total_cards = 0 then 0.
          else
            Float.min 100.
              (fi c.Gc_stats.dirty_cards /. fi c.Gc_stats.total_cards *. 100.));
    avg_card_scan_bytes =
      mean Gc_stats.Partial (fun c -> fi c.Gc_stats.card_scan_bytes);
    avg_floating_objects =
      (if cycles = [] then 0.
       else
         List.fold_left
           (fun acc c -> acc +. fi c.Gc_stats.floating_objects)
           0. cycles
         /. fi (List.length cycles));
    avg_floating_bytes =
      (if cycles = [] then 0.
       else
         List.fold_left
           (fun acc c -> acc +. fi c.Gc_stats.floating_bytes)
           0. cycles
         /. fi (List.length cycles));
    max_floating_bytes =
      List.fold_left
        (fun acc c -> Stdlib.max acc c.Gc_stats.floating_bytes)
        0 cycles;
  }

(* JSON round-trip.  One (name, inject, project) row per field keeps the
   writer and the reader in lockstep: a field added to the record without a
   row here is a compile error in [to_json]/[of_json] construction below. *)
module Json = Otfgc_support.Json

let to_json t =
  Json.Obj
    [
      ("workload", Json.String t.workload);
      ("mode", Json.String t.mode);
      ("elapsed_multi", Json.Int t.elapsed_multi);
      ("elapsed_uni", Json.Int t.elapsed_uni);
      ("mutator_work", Json.Int t.mutator_work);
      ("collector_work", Json.Int t.collector_work);
      ("stall_work", Json.Int t.stall_work);
      ("total_alloc_bytes", Json.Int t.total_alloc_bytes);
      ("total_alloc_objects", Json.Int t.total_alloc_objects);
      ("final_capacity", Json.Int t.final_capacity);
      ("n_partial", Json.Int t.n_partial);
      ("n_full", Json.Int t.n_full);
      ("n_non_gen", Json.Int t.n_non_gen);
      ("pct_time_gc", Json.Float t.pct_time_gc);
      ("avg_intergen_scanned", Json.Float t.avg_intergen_scanned);
      ("avg_scanned_partial", Json.Float t.avg_scanned_partial);
      ("avg_scanned_full", Json.Float t.avg_scanned_full);
      ("avg_scanned_non_gen", Json.Float t.avg_scanned_non_gen);
      ("pct_bytes_freed_partial", Json.Float t.pct_bytes_freed_partial);
      ("pct_objects_freed_partial", Json.Float t.pct_objects_freed_partial);
      ("pct_objects_freed_full", Json.Float t.pct_objects_freed_full);
      ("pct_objects_freed_non_gen", Json.Float t.pct_objects_freed_non_gen);
      ("avg_work_partial", Json.Float t.avg_work_partial);
      ("avg_work_full", Json.Float t.avg_work_full);
      ("avg_work_non_gen", Json.Float t.avg_work_non_gen);
      ("avg_objects_freed_partial", Json.Float t.avg_objects_freed_partial);
      ("avg_objects_freed_full", Json.Float t.avg_objects_freed_full);
      ("avg_objects_freed_non_gen", Json.Float t.avg_objects_freed_non_gen);
      ("avg_bytes_freed_partial", Json.Float t.avg_bytes_freed_partial);
      ("avg_bytes_freed_full", Json.Float t.avg_bytes_freed_full);
      ("avg_bytes_freed_non_gen", Json.Float t.avg_bytes_freed_non_gen);
      ("avg_pages_partial", Json.Float t.avg_pages_partial);
      ("avg_pages_full", Json.Float t.avg_pages_full);
      ("avg_pages_non_gen", Json.Float t.avg_pages_non_gen);
      ("pct_dirty_cards", Json.Float t.pct_dirty_cards);
      ("avg_card_scan_bytes", Json.Float t.avg_card_scan_bytes);
      ("avg_floating_objects", Json.Float t.avg_floating_objects);
      ("avg_floating_bytes", Json.Float t.avg_floating_bytes);
      ("max_floating_bytes", Json.Int t.max_floating_bytes);
    ]

exception Bad_field of string

let of_json j =
  let str k =
    match Option.bind (Json.member k j) Json.as_string with
    | Some s -> s
    | None -> raise (Bad_field k)
  in
  let int k =
    match Option.bind (Json.member k j) Json.as_int with
    | Some i -> i
    | None -> raise (Bad_field k)
  in
  let flt k =
    match Option.bind (Json.member k j) Json.as_float with
    | Some f -> f
    | None -> raise (Bad_field k)
  in
  try
    Ok
      {
        workload = str "workload";
        mode = str "mode";
        elapsed_multi = int "elapsed_multi";
        elapsed_uni = int "elapsed_uni";
        mutator_work = int "mutator_work";
        collector_work = int "collector_work";
        stall_work = int "stall_work";
        total_alloc_bytes = int "total_alloc_bytes";
        total_alloc_objects = int "total_alloc_objects";
        final_capacity = int "final_capacity";
        n_partial = int "n_partial";
        n_full = int "n_full";
        n_non_gen = int "n_non_gen";
        pct_time_gc = flt "pct_time_gc";
        avg_intergen_scanned = flt "avg_intergen_scanned";
        avg_scanned_partial = flt "avg_scanned_partial";
        avg_scanned_full = flt "avg_scanned_full";
        avg_scanned_non_gen = flt "avg_scanned_non_gen";
        pct_bytes_freed_partial = flt "pct_bytes_freed_partial";
        pct_objects_freed_partial = flt "pct_objects_freed_partial";
        pct_objects_freed_full = flt "pct_objects_freed_full";
        pct_objects_freed_non_gen = flt "pct_objects_freed_non_gen";
        avg_work_partial = flt "avg_work_partial";
        avg_work_full = flt "avg_work_full";
        avg_work_non_gen = flt "avg_work_non_gen";
        avg_objects_freed_partial = flt "avg_objects_freed_partial";
        avg_objects_freed_full = flt "avg_objects_freed_full";
        avg_objects_freed_non_gen = flt "avg_objects_freed_non_gen";
        avg_bytes_freed_partial = flt "avg_bytes_freed_partial";
        avg_bytes_freed_full = flt "avg_bytes_freed_full";
        avg_bytes_freed_non_gen = flt "avg_bytes_freed_non_gen";
        avg_pages_partial = flt "avg_pages_partial";
        avg_pages_full = flt "avg_pages_full";
        avg_pages_non_gen = flt "avg_pages_non_gen";
        pct_dirty_cards = flt "pct_dirty_cards";
        avg_card_scan_bytes = flt "avg_card_scan_bytes";
        avg_floating_objects = flt "avg_floating_objects";
        avg_floating_bytes = flt "avg_floating_bytes";
        max_floating_bytes = int "max_floating_bytes";
      }
  with Bad_field k -> Error (Printf.sprintf "missing or mistyped field %S" k)

let elapsed t ~multiprocessor =
  fi (if multiprocessor then t.elapsed_multi else t.elapsed_uni)

let improvement_pct ~baseline t ~multiprocessor =
  Otfgc_support.Stats.improvement_pct
    ~baseline:(elapsed baseline ~multiprocessor)
    ~candidate:(elapsed t ~multiprocessor)

let pp ppf t =
  let f = Format.fprintf in
  f ppf "@[<v>workload: %s (%s)@," t.workload t.mode;
  f ppf "elapsed: multi=%d uni=%d (mutator=%d collector=%d stall=%d)@,"
    t.elapsed_multi t.elapsed_uni t.mutator_work t.collector_work t.stall_work;
  f ppf "allocated: %d bytes, %d objects; final capacity %d@,"
    t.total_alloc_bytes t.total_alloc_objects t.final_capacity;
  f ppf "collections: %d partial, %d full, %d non-gen; GC active %.1f%%@,"
    t.n_partial t.n_full t.n_non_gen t.pct_time_gc;
  f ppf "scanned/cycle: intergen=%.0f partial=%.0f full=%.0f nongen=%.0f@,"
    t.avg_intergen_scanned t.avg_scanned_partial t.avg_scanned_full
    t.avg_scanned_non_gen;
  f ppf "freed: partial %.1f%% objects (%.1f%% bytes), full %.1f%%, nongen %.1f%%@,"
    t.pct_objects_freed_partial t.pct_bytes_freed_partial
    t.pct_objects_freed_full t.pct_objects_freed_non_gen;
  f ppf "cycle work: partial=%.0f full=%.0f nongen=%.0f@," t.avg_work_partial
    t.avg_work_full t.avg_work_non_gen;
  f ppf "pages/cycle: partial=%.0f full=%.0f nongen=%.0f@," t.avg_pages_partial
    t.avg_pages_full t.avg_pages_non_gen;
  f ppf "cards: %.2f%% dirty, %.0f bytes scanned/partial@," t.pct_dirty_cards
    t.avg_card_scan_bytes;
  f ppf "floating garbage: %.0f objects (%.0f bytes)/cycle, worst %d bytes@]"
    t.avg_floating_objects t.avg_floating_bytes t.max_floating_bytes
