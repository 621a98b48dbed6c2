(* Tests for the observability surface: the event recorder's protocol
   stream and timeline, and the ASCII heap renderer. *)

open Otfgc
module Fr = Flight_recorder
module Trace_export = Otfgc_metrics.Trace_export
module Heap = Otfgc_heap.Heap
module Color = Otfgc_heap.Color
module Heap_render = Otfgc_heap.Heap_render
module Sched = Otfgc_sched.Sched
module Rng = Otfgc_support.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let kb = 1024

(* Run a short generational workload with the recorder armed; return
   the merged event stream. *)
let collect_events ~gc =
  let rt =
    Runtime.create
      ~heap_config:{ Heap.initial_bytes = 16 * kb; max_bytes = 64 * kb; card_size = 16 }
      ~gc_config:gc ()
  in
  Runtime.arm_recorder rt;
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.make 3)) () in
  ignore (Runtime.spawn_collector rt sched);
  let m = Runtime.new_mutator rt ~name:"m" () in
  ignore
    (Sched.spawn sched ~name:"m" (fun () ->
         let a = Runtime.alloc rt m ~size:32 ~n_slots:1 in
         Mutator.set_reg m 0 a;
         for _ = 1 to 50 do
           ignore (Runtime.alloc rt m ~size:32 ~n_slots:0)
         done;
         ignore (Runtime.collect_and_wait rt m ~full:false);
         ignore (Runtime.collect_and_wait rt m ~full:true);
         Runtime.retire_mutator rt m));
  Sched.run ~max_steps:50_000_000 sched;
  Fr.events (Runtime.recorder rt)

let index_of pred events =
  let rec go i = function
    | [] -> None
    | e :: rest -> if pred e then Some i else go (i + 1) rest
  in
  go 0 events

let is kind ?a (e : Fr.event) =
  e.Fr.kind = kind && match a with Some a -> e.Fr.a = a | None -> true

(* Figure 2's order within the first cycle, by position in the merged
   stream: the cycle opens, the first handshake is posted, the colours
   toggle, the trace starts, the sweep starts, and the sweep ends before
   the cycle does. *)
let test_phase_ordering () =
  let events = collect_events ~gc:(Gc_config.generational ()) in
  check "events recorded" true (List.length events > 6);
  let get p =
    match index_of p events with
    | Some i -> i
    | None -> Alcotest.fail "missing phase"
  in
  let start = get (is Fr.Cycle) in
  let hs1 = get (is Fr.Handshake ~a:(Status.index Status.Sync1)) in
  let toggle = get (is Fr.Colors_toggled) in
  let trace = get (is Fr.Phase ~a:2) in
  let sweep = get (is Fr.Phase ~a:3) in
  check "start < hs1" true (start < hs1);
  check "hs1 < toggle" true (hs1 < toggle);
  check "toggle < trace" true (toggle < trace);
  check "trace < sweep" true (trace < sweep);
  let ends (e : Fr.event) = e.Fr.t0_ns + e.Fr.dur_ns in
  check "sweep ends within the cycle" true
    (ends (List.nth events sweep) <= ends (List.nth events start))

let test_timestamps_monotonic () =
  let events = collect_events ~gc:(Gc_config.generational ()) in
  let rec mono = function
    | a :: (b :: _ as rest) -> a.Fr.t0_ns <= b.Fr.t0_ns && mono rest
    | _ -> true
  in
  check "timestamps non-decreasing" true (mono events)

let test_full_cycle_has_init () =
  let events = collect_events ~gc:(Gc_config.generational ()) in
  check "InitFullCollection's clear phase recorded for the full cycle" true
    (List.exists (is Fr.Phase ~a:0) events)

let test_disabled_by_default () =
  let rt = Runtime.create () in
  let fr = Runtime.recorder rt in
  check "off by default" false (Fr.armed fr);
  check "no collector ring" true (Fr.collector_ring fr = None);
  Fr.note_handshake_posted fr;
  Fr.note_handshake_completed fr ~status:0;
  check_int "disarmed recording is dropped" 0 (List.length (Fr.events fr))

let test_timeline_renders () =
  let fr = Fr.create () in
  Fr.arm ~units:(Cost.create ()) fr;
  let r = Option.get (Fr.collector_ring fr) in
  Fr.span r Fr.Cycle ~a:(Gc_stats.kind_index Gc_stats.Partial) ~t0:10 ~t1:30;
  Fr.span r Fr.Phase ~a:2 ~b:7 ~t0:20 ~t1:25;
  let s = Format.asprintf "%a" Trace_export.pp_timeline fr in
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  Alcotest.(check (list (list string)))
    "one line per event, decoded"
    [
      [ "10"; "collector"; "cycle"; "partial"; "(20)"; "full=false" ];
      [ "20"; "collector"; "trace"; "(5)"; "traced=7" ];
    ]
    (List.map words (String.split_on_char '\n' (String.trim s)));
  Fr.clear fr;
  check_int "cleared" 0 (List.length (Fr.events fr))

(* ------------------------------------------------------------------ *)
(* Heap renderer                                                       *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_render_empty_heap () =
  let heap =
    Heap.create { Heap.initial_bytes = 64 * kb; max_bytes = 64 * kb; card_size = 16 }
  in
  let s = Heap_render.ascii ~width:32 ~rows:8 heap in
  check "has header" true (contains s "heap 64 KB");
  check "all free" true (contains s "....");
  (* the map body (everything after the legend line) is free space only *)
  let body =
    match String.index_opt s '\n' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  check "no objects drawn" false
    (String.exists (fun c -> c <> '.' && c <> '\n') body)

let test_render_shows_generations () =
  let heap =
    Heap.create { Heap.initial_bytes = 64 * kb; max_bytes = 64 * kb; card_size = 16 }
  in
  (* an old region then a young region, big enough to dominate buckets *)
  for _ = 1 to 64 do
    ignore (Heap.alloc heap ~size:256 ~n_slots:0 ~color:Color.Black)
  done;
  for _ = 1 to 64 do
    ignore (Heap.alloc heap ~size:256 ~n_slots:0 ~color:Color.C0)
  done;
  let s = Heap_render.ascii ~width:32 ~rows:16 heap in
  check "old region rendered" true (contains s "BB");
  check "young region rendered" true (contains s "oo");
  check "free tail rendered" true (contains s "..")

let test_render_width_validation () =
  let heap =
    Heap.create { Heap.initial_bytes = kb; max_bytes = kb; card_size = 16 }
  in
  check "narrow width rejected" true
    (match Heap_render.ascii ~width:4 heap with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suites =
  [
    ( "observability.events",
      [
        Alcotest.test_case "phase ordering" `Quick test_phase_ordering;
        Alcotest.test_case "timestamps monotonic" `Quick test_timestamps_monotonic;
        Alcotest.test_case "full cycle init" `Quick test_full_cycle_has_init;
        Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
        Alcotest.test_case "timeline renders" `Quick test_timeline_renders;
      ] );
    ( "observability.render",
      [
        Alcotest.test_case "empty heap" `Quick test_render_empty_heap;
        Alcotest.test_case "generations visible" `Quick test_render_shows_generations;
        Alcotest.test_case "width validation" `Quick test_render_width_validation;
      ] );
  ]
