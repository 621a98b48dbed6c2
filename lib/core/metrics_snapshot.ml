module Json = Otfgc_support.Json
module Histogram = Otfgc_support.Histogram
module Textable = Otfgc_support.Textable

type hist = {
  count : int;
  total : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
}

type tally = { objects : int; bytes : int }

type census = {
  blue : tally;
  c0 : tally;
  c1 : tally;
  gray : tally;
  black : tally;
  young : tally;
  old : tally;
  remset_entries : int;
  floating : tally;
}

type t = {
  seq : int;
  at_ms : float;
  barrier_updates : int;
  yellow_fires : int;
  handshake_acks : int;
  stalls : int;
  card_marks : int;
  remset_records : int;
  lock_waits : int;
  lock_waits_by_class : (int * int) list;
  events_logged : int;
  events_dropped : int;
  mutator_work : int;
  collector_work : int;
  stall_work : int;
  phase_work : (string * int) list;
  category_work : (string * int) list;
  cycles_partial : int;
  cycles_full : int;
  cycles_non_gen : int;
  gc_bytes_freed : int;
  gc_objects_freed : int;
  promotions : int;
  dirty_card_finds : int;
  steals : int;
  steal_failures : int;
  trace_workers : int;
  phase : string;
  heap_capacity : int;
  heap_allocated_bytes : int;
  total_alloc_bytes : int;
  total_alloc_objects : int;
  young_bytes : int;
  dirty_cards : int;
  gray_depth : int;
  freelist_entries : int;
  freelist_stale : int;
  active_mutators : int;
  time_unit : string;
  handshake_latency : (string * hist) list;
  stall_latency : hist;
  cycle_progress : hist;
  slo_handshake : hist;
  census : census option;
}

let hist_of h =
  {
    count = Histogram.count h;
    total = Histogram.total h;
    min = Histogram.min_value h;
    max = Histogram.max_value h;
    mean = Histogram.mean h;
    p50 = Histogram.percentile h 50.;
    p90 = Histogram.percentile h 90.;
    p99 = Histogram.percentile h 99.;
    p999 = Histogram.percentile h 99.9;
  }

let metric_name_of_phase p =
  String.map (fun c -> if c = '-' then '_' else c) (Cost.phase_name p)

(* The single source of truth for the order of the OpenMetrics families
   and of the JSON object's scalar head. *)
let counters t =
  [
    ("barrier_updates", t.barrier_updates);
    ("yellow_fires", t.yellow_fires);
    ("promotions", t.promotions);
    ("dirty_card_finds", t.dirty_card_finds);
    ("handshake_acks", t.handshake_acks);
    ("stalls", t.stalls);
    ("card_marks", t.card_marks);
    ("remset_records", t.remset_records);
    ("steals", t.steals);
    ("steal_failures", t.steal_failures);
    ("lock_waits", t.lock_waits);
    ("mutator_work", t.mutator_work);
    ("collector_work", t.collector_work);
    ("stall_work", t.stall_work);
  ]
  @ List.map (fun (p, w) -> ("work_" ^ p, w)) t.phase_work
  @ [
      ("cycles_partial", t.cycles_partial);
      ("cycles_full", t.cycles_full);
      ("cycles_non_gen", t.cycles_non_gen);
      ("gc_bytes_freed", t.gc_bytes_freed);
      ("gc_objects_freed", t.gc_objects_freed);
      ("total_alloc_bytes", t.total_alloc_bytes);
      ("total_alloc_objects", t.total_alloc_objects);
    ]

let gauges t =
  [
    ("heap_capacity_bytes", t.heap_capacity);
    ("heap_allocated_bytes", t.heap_allocated_bytes);
    ("young_bytes", t.young_bytes);
    ("dirty_cards", t.dirty_cards);
    ("gray_depth", t.gray_depth);
    ("freelist_entries", t.freelist_entries);
    ("freelist_stale", t.freelist_stale);
    ("events_dropped", t.events_dropped);
    ("active_mutators", t.active_mutators);
    ("p99_handshake", t.slo_handshake.p99);
  ]

(* ------------------------------------------------------------------ *)
(* JSON and CSV                                                        *)
(* ------------------------------------------------------------------ *)

let hist_to_json h =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("total", Json.Int h.total);
      ("min", Json.Int h.min);
      ("max", Json.Int h.max);
      ("mean", Json.Float h.mean);
      ("p50", Json.Int h.p50);
      ("p90", Json.Int h.p90);
      ("p99", Json.Int h.p99);
      ("p999", Json.Int h.p999);
    ]

let ints kvs = List.map (fun (k, v) -> (k, Json.Int v)) kvs

let census_to_json c =
  let tally { objects; bytes } =
    Json.Obj [ ("objects", Json.Int objects); ("bytes", Json.Int bytes) ]
  in
  Json.Obj
    [
      ("blue", tally c.blue);
      ("c0", tally c.c0);
      ("c1", tally c.c1);
      ("gray", tally c.gray);
      ("black", tally c.black);
      ("young", tally c.young);
      ("old", tally c.old);
      ("remset_entries", Json.Int c.remset_entries);
      ("floating", tally c.floating);
    ]

let to_json ?(run = []) t =
  Json.Obj
    (run
    @ [
        ("seq", Json.Int t.seq);
        ("at_ms", Json.Float t.at_ms);
        ("phase", Json.String t.phase);
      ]
    @ ints (counters t)
    @ ints (gauges t)
    @ [
        ("category_work", Json.Obj (ints t.category_work));
        ( "lock_waits_by_class",
          Json.Obj
            (List.map
               (fun (cls, n) -> (string_of_int cls, Json.Int n))
               t.lock_waits_by_class) );
        ("trace_workers", Json.Int t.trace_workers);
        ("events_logged", Json.Int t.events_logged);
        ("time_unit", Json.String t.time_unit);
        ( "handshake_latency",
          Json.Obj
            (List.map (fun (k, h) -> (k, hist_to_json h)) t.handshake_latency)
        );
        ("stall_latency", hist_to_json t.stall_latency);
        ("cycle_progress", hist_to_json t.cycle_progress);
        ("slo_handshake", hist_to_json t.slo_handshake);
      ]
    @
    match t.census with
    | Some c -> [ ("census", census_to_json c) ]
    | None -> [])

let csv_of_json doc =
  let b = Buffer.create 4096 in
  let line k v = Printf.bprintf b "%s,%s\n" k v in
  let rec leaf key = function
    | Json.Obj kvs ->
        List.iter
          (fun (k, v) -> leaf (if key = "" then k else key ^ "." ^ k) v)
          kvs
    | Json.List items ->
        List.iteri (fun i v -> leaf (key ^ "." ^ string_of_int i) v) items
    | Json.String s -> line key s
    | v -> line key (Json.to_string v)
  in
  line "metric" "value";
  leaf "" doc;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Text tables                                                         *)
(* ------------------------------------------------------------------ *)

let pct part whole =
  if whole = 0 then "0.0"
  else Textable.fmt_f1 (float_of_int part /. float_of_int whole *. 100.)

let work_table t =
  let tbl =
    Textable.create ~title:"work attribution (units)"
      [ "ledger"; "class"; "units"; "% of ledger" ]
  in
  let row ledger name units whole =
    Textable.add_row tbl [ ledger; name; string_of_int units; pct units whole ]
  in
  List.iter2
    (fun p (_, units) -> row "collector" (Cost.phase_name p) units t.collector_work)
    Cost.phases t.phase_work;
  Textable.add_row tbl
    [ "collector"; "total"; string_of_int t.collector_work; "100.0" ];
  List.iter
    (fun (name, units) -> row "mutator" name units t.mutator_work)
    t.category_work;
  Textable.add_row tbl
    [ "mutator"; "total"; string_of_int t.mutator_work; "100.0" ];
  Textable.add_row tbl [ "stall"; "total"; string_of_int t.stall_work; "" ];
  tbl

let counter_table t =
  let tbl = Textable.create ~title:"event counters" [ "counter"; "count" ] in
  List.iter
    (fun (name, v) -> Textable.add_row tbl [ name; string_of_int v ])
    [
      ("barrier updates", t.barrier_updates);
      ("yellow-exception fires", t.yellow_fires);
      ("promotions", t.promotions);
      ("dirty cards found", t.dirty_card_finds);
      ("handshake acks", t.handshake_acks);
      ("allocation stalls", t.stalls);
      ("card marks", t.card_marks);
      ("remset records", t.remset_records);
      ("gray steals", t.steals);
      ("gray steal failures", t.steal_failures);
      ("alloc lock waits", t.lock_waits);
      ("trace workers", t.trace_workers);
      ("events logged", t.events_logged);
      ("events dropped", t.events_dropped);
    ];
  tbl

let latency_table t =
  let tbl =
    Textable.create
      ~title:(Printf.sprintf "latency histograms (%s)" t.time_unit)
      [
        "instrument"; "count"; "min"; "mean"; "p50"; "p90"; "p99"; "p99.9";
        "max";
      ]
  in
  let row name h =
    Textable.add_row tbl
      (name :: string_of_int h.count :: string_of_int h.min
      :: Textable.fmt_f1 h.mean
      :: List.map string_of_int [ h.p50; h.p90; h.p99; h.p999; h.max ])
  in
  List.iter
    (fun (status, h) -> row ("handshake " ^ status) h)
    t.handshake_latency;
  row "alloc stall" t.stall_latency;
  row "cycle progress" t.cycle_progress;
  tbl

(* The SLO view: one merged handshake distribution plus the stall
   distribution, tail percentiles first — wall-clock microseconds under
   the domains substrate, simulated units otherwise. *)
let slo_table t =
  let tbl =
    Textable.create
      ~title:(Printf.sprintf "SLO latency (%s)" t.time_unit)
      [ "slo"; "count"; "p50"; "p90"; "p99"; "p99.9"; "max" ]
  in
  let row name h =
    Textable.add_row tbl
      (name
      :: List.map string_of_int [ h.count; h.p50; h.p90; h.p99; h.p999; h.max ])
  in
  row "handshake (all)" t.slo_handshake;
  row "alloc stall" t.stall_latency;
  tbl

let print t =
  List.iter Textable.print
    [ work_table t; counter_table t; latency_table t; slo_table t ]
