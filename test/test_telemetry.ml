(* Tests for the telemetry layer: the histogram and JSON support modules,
   the event recorder's bounded ring, the phase/category attribution invariants, the
   Run_result JSON round-trip and the Perfetto trace export. *)

open Otfgc
module Histogram = Otfgc_support.Histogram
module Json = Otfgc_support.Json
module Run_result = Otfgc_metrics.Run_result
module Metrics_snapshot = Otfgc.Metrics_snapshot
module Trace_export = Otfgc_metrics.Trace_export
module Fr = Flight_recorder
module Driver = Otfgc_workloads.Driver
module Profile = Otfgc_workloads.Profile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_hist_basic () =
  let h = Histogram.create () in
  check_int "empty count" 0 (Histogram.count h);
  check_int "empty percentile" 0 (Histogram.percentile h 50.);
  List.iter (Histogram.record h) [ 5; 10; 20; 1000 ];
  check_int "count" 4 (Histogram.count h);
  check_int "total" 1035 (Histogram.total h);
  check_int "min" 5 (Histogram.min_value h);
  check_int "max" 1000 (Histogram.max_value h);
  check "mean" true (abs_float (Histogram.mean h -. 258.75) < 1e-9);
  Histogram.clear h;
  check_int "cleared" 0 (Histogram.count h);
  check_int "cleared total" 0 (Histogram.total h)

let test_hist_negative_clamped () =
  let h = Histogram.create () in
  Histogram.record h (-7);
  check_int "clamped count" 1 (Histogram.count h);
  check_int "clamped min" 0 (Histogram.min_value h);
  check_int "clamped max" 0 (Histogram.max_value h)

let test_hist_percentile_monotone () =
  let h = Histogram.create () in
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 1000 do
    Histogram.record h (Random.State.int st 1_000_000)
  done;
  let prev = ref 0 in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      check "percentile monotone" true (v >= !prev);
      prev := v)
    [ 0.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ];
  check_int "p100 = max" (Histogram.max_value h) (Histogram.percentile h 100.)

(* Each sample must land in a bucket whose [lo..hi] range contains it and
   whose width is within the advertised ~6% relative precision. *)
let test_hist_bucket_precision () =
  List.iter
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      let seen = ref false in
      Histogram.iter h (fun ~lo ~hi ~count ->
          check_int "single sample" 1 count;
          check "bucket contains sample" true (lo <= v && v <= hi);
          check "bucket narrow enough" true (hi - lo <= max 1 (v / 8));
          seen := true);
      check "bucket visited" true !seen)
    [ 0; 1; 15; 16; 17; 100; 1023; 1024; 65535; 1_000_000; max_int / 2 ]

(* percentile_lower brackets the percentile from below: never above the
   upper-bound convention, never below the histogram minimum, and the
   pair tracks the same bucket (~6% relative width apart at most). *)
let test_hist_percentile_lower_brackets () =
  let h = Histogram.create () in
  check_int "empty lower" 0 (Histogram.percentile_lower h 50.);
  let st = Random.State.make [| 23 |] in
  for _ = 1 to 1000 do
    Histogram.record h (1 + Random.State.int st 1_000_000)
  done;
  List.iter
    (fun p ->
      let lo = Histogram.percentile_lower h p in
      let hi = Histogram.percentile h p in
      check "lower <= upper" true (lo <= hi);
      check "lower >= min" true (lo >= Histogram.min_value h);
      check "pair brackets one bucket" true (hi - lo <= max 1 (hi / 8)))
    [ 0.; 10.; 50.; 90.; 99.; 100. ];
  check_int "p0 lower = min" (Histogram.min_value h)
    (Histogram.percentile_lower h 0.);
  (* exact small values: bucket resolution is 1, so the pair pins the
     sample itself *)
  let e = Histogram.create () in
  List.iter (Histogram.record e) [ 3; 3; 3; 9 ];
  check_int "exact p50 lower" 3 (Histogram.percentile_lower e 50.);
  check_int "exact p50 upper" 3 (Histogram.percentile e 50.);
  check_int "exact p100 lower" 9 (Histogram.percentile_lower e 100.)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.record a) [ 5; 10; 20 ];
  List.iter (Histogram.record b) [ 1; 1000; 50_000 ];
  let m = Histogram.merge a b in
  check_int "merged count" 6 (Histogram.count m);
  check_int "merged total" (35 + 51_001) (Histogram.total m);
  check_int "merged min" 1 (Histogram.min_value m);
  check_int "merged max" 50_000 (Histogram.max_value m);
  (* inputs untouched *)
  check_int "a count unchanged" 3 (Histogram.count a);
  check_int "b count unchanged" 3 (Histogram.count b);
  (* merged table equals one table fed both streams, bucket by bucket *)
  let direct = Histogram.create () in
  List.iter (Histogram.record direct) [ 5; 10; 20; 1; 1000; 50_000 ];
  let buckets h =
    let acc = ref [] in
    Histogram.iter h (fun ~lo ~hi ~count -> acc := (lo, hi, count) :: !acc);
    List.rev !acc
  in
  check "bucket-identical to direct recording" true
    (buckets m = buckets direct);
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "p%.0f matches direct" p)
        (Histogram.percentile direct p) (Histogram.percentile m p))
    [ 50.; 90.; 99. ]

let test_hist_merge_empty () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.record a) [ 7; 70 ];
  let m1 = Histogram.merge a b and m2 = Histogram.merge b a in
  check_int "merge with empty keeps count" 2 (Histogram.count m1);
  check_int "min survives empty side" 7 (Histogram.min_value m1);
  check_int "max survives empty side" 70 (Histogram.max_value m2);
  let e = Histogram.merge b (Histogram.create ()) in
  check_int "empty + empty count" 0 (Histogram.count e);
  check_int "empty + empty min" 0 (Histogram.min_value e)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Float 0.1);
        ("c", Json.String "he said \"hi\"\n\t\\");
        ("d", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("e", Json.Obj [ ("nested", Json.List [ Json.Int (-7) ]) ]);
        ("f", Json.Float 1e-300);
        ("g", Json.Float (-3.0));
        ("h", Json.Int min_int);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.fail e
  | Ok doc' -> check "tree preserved" true (doc = doc')

let test_json_int_float_distinct () =
  (match Json.of_string "[1, 1.0]" with
  | Ok (Json.List [ Json.Int 1; Json.Float 1.0 ]) -> ()
  | _ -> Alcotest.fail "int/float not distinguished");
  (* a float that prints without a fraction must come back as a float *)
  match Json.of_string (Json.to_string (Json.Float 2.0)) with
  | Ok (Json.Float 2.0) -> ()
  | _ -> Alcotest.fail "whole float did not round-trip as float"

let test_json_errors () =
  check "trailing garbage" true
    (Result.is_error (Json.of_string "{} extra"));
  check "bad token" true (Result.is_error (Json.of_string "{bad}"));
  check "unterminated string" true
    (Result.is_error (Json.of_string "\"abc"));
  check "empty input" true (Result.is_error (Json.of_string "  "))

let test_json_unicode_escape () =
  match Json.of_string {|"Aé"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "utf8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape"

(* A \u escape is exactly four hex digits. *)
let test_json_u_escape_digits () =
  (match Json.of_string {|"\u00e9"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "utf8" "\xc3\xa9" s
  | _ -> Alcotest.fail "valid \\u escape rejected");
  check "underscore" true (Result.is_error (Json.of_string {|"\u0_41"|}));
  check "non-hex digit" true (Result.is_error (Json.of_string {|"\u00g1"|}));
  check "sign" true (Result.is_error (Json.of_string {|"\u+041"|}))

(* ------------------------------------------------------------------ *)
(* Event ring                                                          *)
(* ------------------------------------------------------------------ *)

(* A recorder on the simulator's clock, one ring to write into. *)
let units_ring ?capacity () =
  let fr = Fr.create ?capacity () in
  Fr.arm ~units:(Cost.create ()) fr;
  (fr, Option.get (Fr.collector_ring fr))

let test_ring_bounded () =
  let fr, r = units_ring ~capacity:16 () in
  for i = 0 to 25 do
    Fr.instant r Fr.Promoted ~a:i ~at:i
  done;
  check_int "length capped" 16 (Fr.length fr);
  check_int "dropped" 10 (Fr.dropped fr);
  let ats = List.map (fun e -> e.Fr.t0_ns) (Fr.events fr) in
  Alcotest.(check (list int)) "oldest-first tail" (List.init 16 (( + ) 10)) ats;
  Fr.clear fr;
  check_int "clear resets length" 0 (Fr.length fr);
  check_int "clear resets dropped" 0 (Fr.dropped fr);
  check "clear keeps armed" true (Fr.armed fr)

let test_ring_wraparound_keeps_order () =
  let fr, r = units_ring ~capacity:64 () in
  (* three and a half laps of the ring *)
  for i = 0 to 223 do
    Fr.instant r Fr.Colors_toggled ~a:0 ~at:i
  done;
  Alcotest.(check (list int)) "the newest lap, in order"
    (List.init 64 (( + ) 160))
    (List.map (fun e -> e.Fr.t0_ns) (Fr.events fr))

(* Every kind, both payload words and the span endpoints survive the
   int encoding. *)
let test_ring_payload_roundtrip () =
  let fr, r = units_ring () in
  let kinds =
    Fr.
      [
        Phase; Cycle; Handshake; Ack; Poll; Stall; Lock_wait; Steal; Idle;
        Colors_toggled; Promoted; Heap_grown;
      ]
  in
  List.iteri
    (fun i k -> Fr.span r k ~a:(i - 3) ~b:((1 lsl 40) + i) ~t0:i ~t1:(3 * i))
    kinds;
  Alcotest.(check (list (list int)))
    "payloads decode"
    (List.mapi (fun i _ -> [ i - 3; (1 lsl 40) + i; i; 2 * i ]) kinds)
    (List.map (fun e -> Fr.[ e.a; e.b; e.t0_ns; e.dur_ns ]) (Fr.events fr));
  check "kinds decode" true
    (List.map (fun e -> e.Fr.kind) (Fr.events fr) = kinds);
  check "on the collector track" true
    (List.for_all
       (fun e -> e.Fr.track = "collector" && e.Fr.tid = Fr.collector_tid)
       (Fr.events fr))

(* ------------------------------------------------------------------ *)
(* Run_result JSON round-trip                                          *)
(* ------------------------------------------------------------------ *)

let small_run ?(mode = Gc_config.generational ()) () =
  Driver.run ~scale:0.02 ~gc:mode (Profile.anagram)

let test_run_result_roundtrip () =
  let r = small_run () in
  match Json.of_string (Json.to_string (Run_result.to_json r)) with
  | Error e -> Alcotest.fail ("reparse: " ^ e)
  | Ok j -> (
      match Run_result.of_json j with
      | Error e -> Alcotest.fail ("of_json: " ^ e)
      | Ok r' -> check "exact round-trip" true (r = r'))

let test_run_result_of_json_errors () =
  let j = Run_result.to_json (small_run ()) in
  (* drop one field: must be reported by name *)
  let mutilated =
    match j with
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "stall_work") fields)
    | _ -> assert false
  in
  match Run_result.of_json mutilated with
  | Error msg -> check "names the field" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "missing field accepted"

(* ------------------------------------------------------------------ *)
(* Attribution invariants                                              *)
(* ------------------------------------------------------------------ *)

let instrumented_run ?(scale = 0.02) ~seed ~gc profile =
  Driver.run_rt ~seed ~scale
    ~instrument:(fun rt ->
      Runtime.arm_recorder rt;
      Telemetry.set_enabled (Runtime.telemetry rt) true)
    ~gc profile

let sum_phase cost =
  List.fold_left (fun acc p -> acc + Cost.phase_work cost p) 0 Cost.phases

let sum_category cost =
  List.fold_left (fun acc c -> acc + Cost.category_work cost c) 0 Cost.categories

(* Handshake latency gaps recomputed from the recorder's handshake
   spans; [None] when a ring overflow makes the record incomplete. *)
let latency_from_events fr =
  if Fr.dropped fr > 0 then None
  else begin
    let acc = Array.make 3 0 and counts = Array.make 3 0 in
    List.iter
      (fun e ->
        if e.Fr.kind = Fr.Handshake then begin
          acc.(e.Fr.a) <- acc.(e.Fr.a) + e.Fr.dur_ns;
          counts.(e.Fr.a) <- counts.(e.Fr.a) + 1
        end)
      (Fr.events fr);
    Some (acc, counts)
  end

let check_invariants name (gc : Gc_config.t) seed =
  let r, rt = instrumented_run ~seed ~gc (Profile.anagram) in
  let cost = Runtime.cost rt in
  let tel = Runtime.telemetry rt in
  check_int
    (name ^ ": phase work sums to collector_work")
    (Cost.collector_work cost) (sum_phase cost);
  check_int
    (name ^ ": category work sums to mutator_work")
    (Cost.mutator_work cost) (sum_category cost);
  check_int
    (name ^ ": ledger matches run result")
    r.Run_result.collector_work (Cost.collector_work cost);
  (match latency_from_events (Runtime.recorder rt) with
  | None -> Alcotest.fail (name ^ ": recorder ring overflowed")
  | Some (gaps, counts) ->
      List.iter
        (fun s ->
          let i = Status.index s in
          let h = Telemetry.handshake_latency tel s in
          check_int
            (Printf.sprintf "%s: %s latency count = completes" name
               (Status.to_string s))
            counts.(i) (Histogram.count h);
          check_int
            (Printf.sprintf "%s: %s latency total = sum of event gaps" name
               (Status.to_string s))
            gaps.(i) (Histogram.total h);
          check
            (Printf.sprintf "%s: %s samples non-negative" name
               (Status.to_string s))
            true
            (Histogram.min_value h >= 0))
        [ Status.Async; Status.Sync1; Status.Sync2 ]);
  (* cycle progress: one sample per completed cycle *)
  let cycles = List.length (Gc_stats.cycles (Runtime.stats rt)) in
  check_int
    (name ^ ": one progress sample per cycle")
    cycles
    (Histogram.count (Telemetry.cycle_progress tel))

let test_invariants_gen () = check_invariants "gen" (Gc_config.generational ()) 7

let test_invariants_nongen () =
  check_invariants "nongen" Gc_config.non_generational 7

let test_invariants_aging () =
  check_invariants "aging" (Gc_config.aging ~oldest_age:3 ()) 7

let test_invariants_qcheck =
  QCheck.Test.make ~count:6 ~name:"telemetry invariants hold for any seed"
    QCheck.(pair (int_bound 1000) (int_bound 3))
    (fun (seed, mode_i) ->
      let gc =
        match mode_i with
        | 0 -> Gc_config.generational ()
        | 1 -> Gc_config.non_generational
        | 2 -> Gc_config.aging ~oldest_age:2 ()
        | _ -> Gc_config.adaptive ()
      in
      let _, rt = instrumented_run ~seed ~gc (Profile.anagram) in
      let cost = Runtime.cost rt in
      sum_phase cost = Cost.collector_work cost
      && sum_category cost = Cost.mutator_work cost
      && Histogram.min_value
           (Telemetry.stall_latency (Runtime.telemetry rt))
         >= 0)

(* Telemetry enabled/disabled must not change the result: the digest tests
   pin this globally; here the same claim is made directly. *)
let test_telemetry_inert () =
  let r_plain = small_run () in
  let r_instr, _ =
    instrumented_run ~seed:42 ~gc:(Gc_config.generational ())
      (Profile.anagram)
  in
  check "identical run result" true (r_plain = r_instr)

let test_disabled_by_default () =
  let rt = Runtime.create () in
  check "telemetry instruments off" false (Telemetry.enabled (Runtime.telemetry rt));
  check "event recorder off" false (Fr.armed (Runtime.recorder rt))

(* ------------------------------------------------------------------ *)
(* Telemetry report                                                    *)
(* ------------------------------------------------------------------ *)

let test_report_summary () =
  let _, rt =
    instrumented_run ~seed:42 ~gc:(Gc_config.generational ())
      (Profile.anagram)
  in
  let s = Observatory.take (Runtime.state rt) in
  let sum kvs = List.fold_left (fun a (_, v) -> a + v) 0 kvs in
  check_int "report phase sum" s.Metrics_snapshot.collector_work
    (sum s.Metrics_snapshot.phase_work);
  check_int "report category sum" s.Metrics_snapshot.mutator_work
    (sum s.Metrics_snapshot.category_work);
  check "barriers counted" true (s.Metrics_snapshot.barrier_updates > 0);
  check "acks counted" true (s.Metrics_snapshot.handshake_acks > 0);
  (* export forms *)
  let j =
    Metrics_snapshot.to_json ~run:[ ("workload", Json.String "anagram") ] s
  in
  check "json reparses" true
    (Json.of_string (Json.to_string j) = Ok j);
  let csv = String.split_on_char '\n' (Metrics_snapshot.csv_of_json j) in
  check_str "csv header" "metric,value" (List.hd csv);
  check_str "csv leads with the run identity" "workload,anagram"
    (List.nth csv 1);
  check "csv flattens nested histograms" true
    (List.mem
       (Printf.sprintf "slo_handshake.count,%d"
          s.Metrics_snapshot.slo_handshake.Metrics_snapshot.count)
       csv)

(* ------------------------------------------------------------------ *)
(* Perfetto trace export                                               *)
(* ------------------------------------------------------------------ *)

let trace_doc () =
  (* Scale 0.05 so the measured lap contains at least one cycle that runs
     to completion; at smaller scales the sole mutator can retire between
     trace and sweep, ending the run mid-cycle. *)
  let _, rt =
    instrumented_run ~scale:0.05 ~seed:42 ~gc:(Gc_config.generational ())
      (Profile.anagram)
  in
  Trace_export.of_flight ~workload:"anagram" (Runtime.recorder rt)

let event_list doc =
  match Option.bind (Json.member "traceEvents" doc) Json.as_list with
  | Some l -> l
  | None -> Alcotest.fail "no traceEvents"

let test_trace_golden () =
  let doc = trace_doc () in
  (* the writer's own validator accepts it... *)
  (match Trace_export.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("validate: " ^ e));
  (* ...and so does a full serialize/reparse lap *)
  (match Json.of_string (Json.to_string doc) with
  | Ok reparsed -> (
      match Trace_export.validate reparsed with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("validate after reparse: " ^ e))
  | Error e -> Alcotest.fail ("reparse: " ^ e));
  let events = event_list doc in
  let name_of e =
    Option.value ~default:"" (Option.bind (Json.member "name" e) Json.as_string)
  in
  let names = List.map name_of events in
  List.iter
    (fun expected ->
      check ("has " ^ expected) true (List.mem expected names))
    [ "thread_name"; "handshake sync1"; "handshake sync2"; "trace"; "sweep" ];
  check "has a cycle slice" true
    (List.exists
       (fun n -> n = "cycle partial" || n = "cycle full" || n = "cycle non-gen")
       names);
  (* every event is track-addressed *)
  List.iter
    (fun e ->
      check "has pid" true (Json.member "pid" e <> None);
      check "has tid" true (Json.member "tid" e <> None))
    events;
  (* one track per mutator beside the collector *)
  let tids =
    List.filter_map (fun e -> Option.bind (Json.member "tid" e) Json.as_int) events
    |> List.sort_uniq compare
  in
  check "collector track present" true (List.mem Fr.collector_tid tids);
  check "mutator track present" true
    (List.exists (fun t -> t <> Fr.collector_tid) tids);
  (* durations non-negative and slices time-ordered per track *)
  let slices_of tid =
    List.filter_map
      (fun e ->
        match Option.bind (Json.member "ph" e) Json.as_string with
        | Some "X" when Option.bind (Json.member "tid" e) Json.as_int = Some tid
          ->
            Some
              ( Option.get (Option.bind (Json.member "ts" e) Json.as_int),
                Option.get (Option.bind (Json.member "dur" e) Json.as_int) )
        | _ -> None)
      events
  in
  List.iter
    (fun tid ->
      List.iter
        (fun (_, dur) -> check "dur >= 0" true (dur >= 0))
        (slices_of tid))
    tids

let test_trace_validate_rejects () =
  let bogus =
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "x");
                  ("ph", Json.String "X");
                  ("ts", Json.Int 5);
                  ("dur", Json.Int (-1));
                  ("pid", Json.Int 1);
                  ("tid", Json.Int 0);
                ];
            ] );
      ]
  in
  check "negative dur rejected" true (Result.is_error (Trace_export.validate bogus));
  check "missing traceEvents rejected" true
    (Result.is_error (Trace_export.validate (Json.Obj [])));
  (* partial overlap on one track *)
  let overlap =
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "thread_name");
                  ("ph", Json.String "M");
                  ("pid", Json.Int 1);
                  ("tid", Json.Int 0);
                  ("args", Json.Obj [ ("name", Json.String "collector") ]);
                ];
              Json.Obj
                [
                  ("name", Json.String "a");
                  ("ph", Json.String "X");
                  ("ts", Json.Int 0);
                  ("dur", Json.Int 10);
                  ("pid", Json.Int 1);
                  ("tid", Json.Int 0);
                ];
              Json.Obj
                [
                  ("name", Json.String "b");
                  ("ph", Json.String "X");
                  ("ts", Json.Int 5);
                  ("dur", Json.Int 10);
                  ("pid", Json.Int 1);
                  ("tid", Json.Int 0);
                ];
            ] );
      ]
  in
  check "partial overlap rejected" true
    (Result.is_error (Trace_export.validate overlap))

(* The validator reads untrusted files ([gcsim validate trace]): on any
   JSON document it answers [Ok] or [Error], never an exception.  The
   generator is biased towards near-traces — [traceEvents] members that
   are not objects, fields of the wrong type, [ts]/[dur] at the edges
   of the int range — so the nesting check runs on hostile input. *)
let gen_trace_doc =
  let open QCheck.Gen in
  let edge_int =
    oneof
      [
        small_signed_int;
        oneofl [ max_int; max_int - 1; min_int; 0; -1; max_int / 2 ];
        map (fun d -> max_int - d) small_nat;
      ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) edge_int;
        map (fun f -> Json.Float f) float;
        map (fun s -> Json.String s) (oneofl [ "X"; "i"; "M"; "B"; ""; "collector" ]);
      ]
  in
  let json =
    fix
      (fun self depth ->
        if depth = 0 then scalar
        else
          frequency
            [
              (3, scalar);
              (1, map (fun l -> Json.List l) (list_size (0 -- 3) (self (depth - 1))));
              ( 1,
                map
                  (fun l -> Json.Obj l)
                  (list_size (0 -- 3)
                     (pair (oneofl [ "name"; "ph"; "args"; "x" ]) (self (depth - 1)))) );
            ])
      2
  in
  (* a well-formed slice, instant or metadata record, then maybe one
     field dropped or replaced by arbitrary JSON *)
  let record =
    map
      (fun (ph, ts, dur, tid) ->
        [
          ("name", Json.String "x");
          ("ph", Json.String ph);
          ("ts", Json.Int ts);
          ("dur", Json.Int dur);
          ("pid", Json.Int 1);
          ("tid", Json.Int tid);
          ("args", Json.Obj [ ("name", Json.String "collector") ]);
        ])
      (quad (oneofl [ "X"; "X"; "i"; "M" ]) edge_int edge_int (0 -- 2))
  in
  let damaged =
    record >>= fun fields ->
    oneof
      [
        return fields;
        map (fun k -> List.remove_assoc k fields) (oneofl (List.map fst fields));
        map2
          (fun k v -> (k, v) :: List.remove_assoc k fields)
          (oneofl (List.map fst fields))
          json;
      ]
  in
  let event =
    frequency [ (6, map (fun l -> Json.Obj l) damaged); (1, json) ]
  in
  frequency
    [
      (1, json);
      ( 4,
        map
          (fun evs -> Json.Obj [ ("traceEvents", Json.List evs) ])
          (list_size (0 -- 6) event) );
    ]

let prop_validate_total =
  QCheck.Test.make ~count:2000 ~name:"validate answers Ok or Error on any JSON"
    (QCheck.make ~print:Json.to_string gen_trace_doc)
    (fun doc ->
      match Trace_export.validate doc with Ok () | Error _ -> true)

let suites =
  [
    ( "telemetry.histogram",
      [
        Alcotest.test_case "basic stats" `Quick test_hist_basic;
        Alcotest.test_case "negative clamped" `Quick test_hist_negative_clamped;
        Alcotest.test_case "percentile monotone" `Quick
          test_hist_percentile_monotone;
        Alcotest.test_case "bucket precision" `Quick test_hist_bucket_precision;
        Alcotest.test_case "percentile_lower brackets" `Quick
          test_hist_percentile_lower_brackets;
        Alcotest.test_case "merge" `Quick test_hist_merge;
        Alcotest.test_case "merge with empty" `Quick test_hist_merge_empty;
      ] );
    ( "telemetry.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "int/float distinct" `Quick
          test_json_int_float_distinct;
        Alcotest.test_case "errors" `Quick test_json_errors;
        Alcotest.test_case "unicode escape" `Quick test_json_unicode_escape;
        Alcotest.test_case "unicode escape digits" `Quick
          test_json_u_escape_digits;
      ] );
    ( "telemetry.ring",
      [
        Alcotest.test_case "bounded" `Quick test_ring_bounded;
        Alcotest.test_case "wraparound keeps order" `Quick
          test_ring_wraparound_keeps_order;
        Alcotest.test_case "payload roundtrip" `Quick test_ring_payload_roundtrip;
      ] );
    ( "telemetry.run_result",
      [
        Alcotest.test_case "json roundtrip" `Quick test_run_result_roundtrip;
        Alcotest.test_case "of_json errors" `Quick test_run_result_of_json_errors;
      ] );
    ( "telemetry.invariants",
      [
        Alcotest.test_case "generational" `Quick test_invariants_gen;
        Alcotest.test_case "non-generational" `Quick test_invariants_nongen;
        Alcotest.test_case "aging" `Quick test_invariants_aging;
        QCheck_alcotest.to_alcotest test_invariants_qcheck;
        Alcotest.test_case "telemetry is inert" `Quick test_telemetry_inert;
        Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
      ] );
    ( "telemetry.report",
      [
        Alcotest.test_case "summary" `Quick test_report_summary;
      ] );
    ( "telemetry.trace",
      [
        Alcotest.test_case "golden export" `Quick test_trace_golden;
        Alcotest.test_case "validator rejects" `Quick test_trace_validate_rejects;
        QCheck_alcotest.to_alcotest prop_validate_total;
      ] );
  ]
