(* Flight recorder (DESIGN.md §12): ring mechanics with synthetic
   timestamps, the merged drain's ordering guarantee, and an end-to-end
   domains run whose drained rings must export to a valid multi-track
   Perfetto trace.  Plus the percentile and of_json edge cases the SLO
   report leans on. *)

module Fr = Otfgc.Flight_recorder
module Runtime = Otfgc.Runtime
module Histogram = Otfgc_support.Histogram
module Json = Otfgc_support.Json
module Trace_export = Otfgc_metrics.Trace_export
module Driver = Otfgc_workloads.Driver
module Profile = Otfgc_workloads.Profile
module Substrate = Otfgc_sched.Substrate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Ring mechanics (synthetic timestamps — no clock, no domains)        *)
(* ------------------------------------------------------------------ *)

let test_disarmed_is_inert () =
  let fr = Fr.create () in
  check "not armed" false (Fr.armed fr);
  check "no collector ring" true (Fr.collector_ring fr = None);
  check "no fresh ring" true (Fr.new_ring fr ~track:"x" ~tid:5 = None);
  check_int "no events" 0 (List.length (Fr.events fr));
  check_int "no drops" 0 (Fr.dropped fr)

let test_ring_records_and_drops () =
  let cap = 16 (* the smallest capacity [create] grants *) in
  let fr = Fr.create ~capacity:cap () in
  Fr.arm fr;
  check "armed" true (Fr.armed fr);
  let r = Option.get (Fr.collector_ring fr) in
  (* fill exactly to capacity: nothing dropped, everything drained *)
  for i = 0 to cap - 1 do
    Fr.span r Fr.Phase ~a:i ~t0:(i * 10) ~t1:((i * 10) + 5)
  done;
  check_int "full ring, no drops" 0 (Fr.dropped fr);
  check_int "full ring drains all" cap (List.length (Fr.events fr));
  (* overflow by 3: oldest overwritten, loss counted *)
  for i = cap to cap + 2 do
    Fr.span r Fr.Phase ~a:i ~t0:(i * 10) ~t1:((i * 10) + 5)
  done;
  check_int "overflow counted" 3 (Fr.dropped fr);
  let evs = Fr.events fr in
  check_int "ring still bounded" cap (List.length evs);
  (* survivors are the newest [cap] events: payloads 3..10 *)
  let payloads = List.sort compare (List.map (fun e -> e.Fr.a) evs) in
  check "oldest overwritten" true
    (payloads = List.init cap (fun i -> i + 3))

let test_merged_events_monotone () =
  let fr = Fr.create ~capacity:64 () in
  Fr.arm fr;
  let a = Option.get (Fr.new_ring fr ~track:"dom-a" ~tid:1) in
  let b = Option.get (Fr.new_ring fr ~track:"dom-b" ~tid:2) in
  (* interleave out of phase: a gets even starts, b odd, written in a
     shuffled order per ring — the drain must still come out sorted *)
  List.iter (fun t -> Fr.span a Fr.Steal ~a:1 ~t0:t ~t1:(t + 1))
    [ 40; 0; 20; 60 ];
  List.iter (fun t -> Fr.instant b Fr.Ack ~a:0 ~at:t) [ 50; 10; 30 ];
  let evs = Fr.events fr in
  check_int "all events drained" 7 (List.length evs);
  let rec monotone = function
    | e1 :: (e2 :: _ as rest) ->
        e1.Fr.t0_ns <= e2.Fr.t0_ns && monotone rest
    | _ -> true
  in
  check "merged stream monotone in t0_ns" true (monotone evs);
  check_int "tracks registered" 4 (List.length (Fr.tracks fr))

(* Ties are common on the simulator's cost-unit clock: events with equal
   timestamps come back in the order they were recorded. *)
let test_equal_timestamps_keep_order () =
  let fr = Fr.create () in
  Fr.arm fr;
  let r = Option.get (Fr.collector_ring fr) in
  List.iter (fun a -> Fr.instant r Fr.Promoted ~a ~at:100) [ 1; 2; 3 ];
  Fr.instant r Fr.Promoted ~a:0 ~at:50;
  Alcotest.(check (list int)) "sorted by time, ties in emission order"
    [ 0; 1; 2; 3 ]
    (List.map (fun e -> e.Fr.a) (Fr.events fr))

let test_span_duration_clamped () =
  let fr = Fr.create () in
  Fr.arm fr;
  let r = Option.get (Fr.collector_ring fr) in
  (* a clock hiccup (t1 < t0) must not produce a negative duration *)
  Fr.span r Fr.Idle ~a:0 ~t0:100 ~t1:40;
  match Fr.events fr with
  | [ e ] -> check "duration clamped to zero" true (e.Fr.dur_ns = 0)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* End-to-end: domains run -> drained rings -> valid Perfetto trace    *)
(* ------------------------------------------------------------------ *)

let test_domains_trace_multi_track () =
  let _result, rt =
    Driver.run_rt ~seed:42 ~scale:0.02 ~substrate:Substrate.Domains
      ~threads:2 ~gc_workers:2
      ~instrument:(fun rt -> Runtime.arm_recorder rt)
      ~gc:(Otfgc.Gc_config.generational ())
      Profile.anagram
  in
  let fr = Runtime.recorder rt in
  check "recorder armed" true (Fr.armed fr);
  let evs = Fr.events fr in
  check "recorded something" true (evs <> []);
  let tids = List.sort_uniq compare (List.map (fun e -> e.Fr.tid) evs) in
  check "at least 3 distinct tracks" true (List.length tids >= 3);
  check "collector track present" true (List.mem Fr.collector_tid tids);
  check "a worker track present" true (List.mem (Fr.worker_tid 1) tids);
  let doc = Trace_export.of_flight ~workload:"anagram" fr in
  (match Trace_export.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "flight trace invalid: %s" msg);
  (* the export must survive a serialisation round trip too *)
  match Json.of_string (Json.to_string doc) with
  | Error msg -> Alcotest.failf "flight trace not parseable: %s" msg
  | Ok doc' -> (
      match Trace_export.validate doc' with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "reparsed flight trace invalid: %s" msg)

(* ------------------------------------------------------------------ *)
(* SLO report edge cases                                               *)
(* ------------------------------------------------------------------ *)

let test_percentile_edges () =
  let h = Histogram.create () in
  check_int "empty p50" 0 (Histogram.percentile h 50.);
  check_int "empty p99.9" 0 (Histogram.percentile h 99.9);
  Histogram.record h 37;
  (* a single sample is every percentile *)
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "single-sample p%g" p)
        37 (Histogram.percentile h p))
    [ 0.; 50.; 99.; 99.9; 100. ];
  check_int "single-sample count" 1 (Histogram.count h)

let suites =
  [
    ( "flight.recorder",
      [
        Alcotest.test_case "disarmed recorder is inert" `Quick
          test_disarmed_is_inert;
        Alcotest.test_case "equal timestamps keep order" `Quick
          test_equal_timestamps_keep_order;
        Alcotest.test_case "ring records and counts drops" `Quick
          test_ring_records_and_drops;
        Alcotest.test_case "merged drain is monotone" `Quick
          test_merged_events_monotone;
        Alcotest.test_case "span duration clamped" `Quick
          test_span_duration_clamped;
        Alcotest.test_case "domains run exports a valid multi-track trace"
          `Slow test_domains_trace_multi_track;
      ] );
    ( "flight.slo",
      [
        Alcotest.test_case "percentile edge cases" `Quick
          test_percentile_edges;
      ] );
  ]
