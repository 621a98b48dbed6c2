(* Live observability: lock-free metrics snapshots, the OpenMetrics
   emitter/validator, the observer domain, trajectory schema v2 with
   regression attribution, and the cross-run dashboard.

   The load-bearing property is exactness at quiescence: the observer's
   final snapshot, taken once the domains run has quiesced, must equal
   the post-run Gc_stats/Telemetry totals exactly, and so must a
   snapshot taken after the run.  The collector's run totals have one
   home, the cycle records: a snapshot's totals are their sums. *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Substrate = Otfgc_sched.Substrate
module Driver = Otfgc_workloads.Driver
module Profile = Otfgc_workloads.Profile
module Metrics_snapshot = Otfgc.Metrics_snapshot
module Openmetrics = Otfgc_metrics.Openmetrics
module Observer = Otfgc_metrics.Observer
module Trajectory = Otfgc_metrics.Trajectory
module Dashboard = Otfgc_metrics.Dashboard
module Json = Otfgc_support.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let small_rt () =
  Runtime.create
    ~heap_config:
      { Heap.initial_bytes = 64 * 1024; max_bytes = 64 * 1024; card_size = 16 }
    ~gc_config:(Gc_config.generational ()) ()

(* A finished cycle that promoted [n] objects, recorded as the collector
   records one. *)
let end_cycle_promoting rt n =
  let stats = Runtime.stats rt in
  let c = Gc_stats.begin_cycle stats Gc_stats.Partial in
  c.Gc_stats.promotions <- n;
  Gc_stats.end_cycle stats c

(* ------------------------------------------------------------------ *)
(* Metrics_snapshot                                                    *)
(* ------------------------------------------------------------------ *)

let test_snapshot_fresh () =
  let rt = small_rt () in
  let s = Observatory.take (Runtime.state rt) in
  check_int "no work yet" 0 s.Metrics_snapshot.mutator_work;
  check_int "no cycles yet" 0
    (s.Metrics_snapshot.cycles_partial + s.Metrics_snapshot.cycles_full
   + s.Metrics_snapshot.cycles_non_gen);
  check "capacity gauge positive" true (s.Metrics_snapshot.heap_capacity > 0);
  check "all counters non-negative" true
    (List.for_all (fun (_, v) -> v >= 0) (Metrics_snapshot.counters s));
  check_str "idle phase" "idle" s.Metrics_snapshot.phase

let test_snapshot_monotone_delta () =
  let rt = small_rt () in
  let st = Runtime.state rt in
  let s1 = Observatory.take ~seq:0 st in
  let tel = Runtime.telemetry rt in
  Telemetry.hit_barrier tel;
  Telemetry.hit_barrier tel;
  end_cycle_promoting rt 3;
  Cost.mutator (Runtime.cost rt) 17;
  let s2 = Observatory.take ~seq:1 st in
  let d =
    List.map2
      (fun (k, v1) (_, v2) -> (k, v2 - v1))
      (Metrics_snapshot.counters s1)
      (Metrics_snapshot.counters s2)
  in
  check_int "barrier delta" 2 (List.assoc "barrier_updates" d);
  check_int "promotions delta" 3 (List.assoc "promotions" d);
  check_int "mutator work delta" 17 (List.assoc "mutator_work" d);
  check "every counter delta non-negative" true
    (List.for_all (fun (_, v) -> v >= 0) d)

(* ------------------------------------------------------------------ *)
(* OpenMetrics emitter + validator                                     *)
(* ------------------------------------------------------------------ *)

let sample_snapshot () =
  let rt = small_rt () in
  let tel = Runtime.telemetry rt in
  Telemetry.hit_barrier tel;
  end_cycle_promoting rt 2;
  Observatory.take ~seq:3 ~at_ms:10. (Runtime.state rt)

let test_om_render_validates () =
  let doc =
    Openmetrics.render
      ~labels:[ ("workload", "anagram"); ("mode", "gen") ]
      (sample_snapshot ())
  in
  match Openmetrics.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "emitter output rejected: %s\n%s" e doc

let test_om_deterministic_order () =
  let s = sample_snapshot () in
  check_str "same snapshot renders identically" (Openmetrics.render s)
    (Openmetrics.render s);
  (* counter families appear in Metrics_snapshot.counters order *)
  let doc = Openmetrics.render s in
  let pos name =
    let needle = "# TYPE otfgc_" ^ name ^ " " in
    let rec find i =
      if i + String.length needle > String.length doc then
        Alcotest.failf "family %s missing" name
      else if String.sub doc i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  ignore
    (List.fold_left
       (fun prev (name, _) ->
         let p = pos name in
         check (name ^ " after its predecessor") true (p > prev);
         p)
       (-1)
       (Metrics_snapshot.counters s))

let test_om_escaping () =
  check_str "backslash, quote, newline escaped" "a\\\\b\\\"c\\nd"
    (Openmetrics.escape_label_value "a\\b\"c\nd");
  let doc =
    Openmetrics.render
      ~labels:[ ("workload", "we\"ird\\name\nhere") ]
      (sample_snapshot ())
  in
  match Openmetrics.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "escaped labels rejected: %s" e

let test_om_validator_rejects () =
  let ok doc = Result.is_error (Openmetrics.validate doc) in
  check "missing EOF" true (ok "# TYPE x counter\nx_total 1\n");
  check "missing trailing newline" true
    (ok "# TYPE x counter\nx_total 1\n# EOF");
  check "content after EOF" true
    (ok "# TYPE x counter\nx_total 1\n# EOF\nx_total 2\n");
  check "blank line" true (ok "# TYPE x counter\n\nx_total 1\n# EOF\n");
  check "sample before any TYPE" true (ok "x_total 1\n# EOF\n");
  check "duplicate family" true
    (ok "# TYPE x counter\nx_total 1\n# TYPE x counter\nx_total 2\n# EOF\n");
  check "counter sample without _total" true
    (ok "# TYPE x counter\nx 1\n# EOF\n");
  check "sample outside its family block" true
    (ok
       "# TYPE x counter\nx_total 1\n# TYPE y gauge\nx_total 2\n# EOF\n");
  check "unknown type" true (ok "# TYPE x histogram\nx 1\n# EOF\n");
  check "non-finite value" true (ok "# TYPE x gauge\nx nan\n# EOF\n");
  check "bad escape in label" true
    (ok "# TYPE x gauge\nx{l=\"a\\q\"} 1\n# EOF\n");
  check "unterminated label block" true
    (ok "# TYPE x gauge\nx{l=\"a\" 1\n# EOF\n");
  check "family with no samples" true
    (ok "# TYPE x gauge\n# TYPE y gauge\ny 1\n# EOF\n")

let test_om_validator_accepts_labels () =
  match
    Openmetrics.validate
      "# HELP x help text\n# TYPE x gauge\nx{a=\"1\",b=\"t\\\"wo\"} 3.5\n# EOF\n"
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "labelled sample rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Observer end-to-end on the domains substrate                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let run_with_observer ~every_ms =
  let om = Filename.temp_file "otfgc_metrics" ".om" in
  let jsonl = Filename.temp_file "otfgc_metrics" ".jsonl" in
  let obs =
    Observer.create
      {
        Observer.every_ms;
        om_path = Some om;
        jsonl_path = Some jsonl;
        live = false;
        labels = [ ("workload", "anagram") ];
      }
  in
  let _, rt =
    Driver.run_rt ~seed:42 ~scale:0.04 ~substrate:Substrate.Domains
      ~threads:2 ~observer:obs
      ~gc:(Gc_config.generational ()) Profile.anagram
  in
  (rt, om, jsonl)

(* The collector's run totals in a snapshot against the sums over the
   completed cycle records, each count's only other home. *)
let check_cycle_sums stats (snap : Metrics_snapshot.t) =
  let cycles = Gc_stats.cycles stats in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cycles in
  check "cycles completed" true (cycles <> []);
  List.iter
    (fun (name, f, total) ->
      check_int (name ^ " = sum over cycles") (sum f) total)
    Gc_stats.
      [
        ("bytes freed", (fun c -> c.bytes_freed), snap.gc_bytes_freed);
        ("objects freed", (fun c -> c.objects_freed), snap.gc_objects_freed);
        ("promotions", (fun c -> c.promotions), snap.promotions);
        ("dirty cards", (fun c -> c.dirty_cards), snap.dirty_card_finds);
        ("steals", (fun c -> c.steals), snap.steals);
        ("steal failures", (fun c -> c.steal_failures), snap.steal_failures);
      ]

(* A snapshot's whole-run totals against a hand sum, made without the
   ledger fold: the shared ledger (crew worker 0's, the whole crew here)
   plus each mutator's own. *)
let check_hand_sum rt (snap : Metrics_snapshot.t) =
  let mutators = State.mutators (Runtime.state rt) in
  let costs = Runtime.cost rt :: List.filter_map Mutator.own_cost mutators in
  let tels =
    Runtime.telemetry rt :: List.filter_map Mutator.own_telemetry mutators
  in
  let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  let stats = Runtime.stats rt in
  check "mutators charged ledgers of their own" true (List.length costs > 1);
  check_int "mutator work exact" (sum Cost.mutator_work costs)
    snap.Metrics_snapshot.mutator_work;
  check_int "collector work exact" (sum Cost.collector_work costs)
    snap.Metrics_snapshot.collector_work;
  check_int "stall work exact" (sum Cost.stall_work costs)
    snap.Metrics_snapshot.stall_work;
  List.iter
    (fun p ->
      check_int
        ("phase work exact: " ^ Cost.phase_name p)
        (sum (fun c -> Cost.phase_work c p) costs)
        (List.assoc
           (Metrics_snapshot.metric_name_of_phase p)
           snap.Metrics_snapshot.phase_work))
    Cost.phases;
  check_int "barrier updates exact" (sum Telemetry.barrier_updates tels)
    snap.Metrics_snapshot.barrier_updates;
  check_int "handshake acks exact" (sum Telemetry.handshake_acks tels)
    snap.Metrics_snapshot.handshake_acks;
  check_int "card marks exact" (sum Telemetry.card_marks tels)
    snap.Metrics_snapshot.card_marks;
  check_int "stalls exact" (sum Telemetry.stalls tels)
    snap.Metrics_snapshot.stalls;
  check_int "partial cycles exact"
    (Gc_stats.n_completed_of stats Gc_stats.Partial)
    snap.Metrics_snapshot.cycles_partial;
  check_int "full cycles exact" (Gc_stats.n_completed_of stats Gc_stats.Full)
    snap.Metrics_snapshot.cycles_full;
  check_cycle_sums stats snap

let test_observer_final_exact () =
  let rt, om, jsonl = run_with_observer ~every_ms:5. in
  let snaps = Sampler.rows (Runtime.sampler rt) in
  check "snapshots taken" true (snaps <> []);
  let final = List.nth snaps (List.length snaps - 1) in
  (* the final snapshot is taken at quiescence, so it is exact *)
  check_hand_sum rt final;
  (* seq numbering is dense *)
  List.iteri
    (fun i s -> check_int "dense seq" i s.Metrics_snapshot.seq)
    snaps;
  (* the OM sink holds the final snapshot and validates *)
  (match Openmetrics.validate (read_file om) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "om sink invalid: %s" e);
  (* JSONL parse-back: one valid line per snapshot, last line = final *)
  let lines =
    String.split_on_char '\n' (read_file jsonl)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one JSONL line per snapshot" (List.length snaps)
    (List.length lines);
  check "last JSONL line is the final snapshot" true
    (Json.of_string (List.nth lines (List.length lines - 1))
    = Ok (Metrics_snapshot.to_json final));
  Sys.remove om;
  Sys.remove jsonl

(* Nothing moves or resets a ledger after the run, so a snapshot taken
   then counts every unit once, as the hand sum does, and equals the
   observer's final one. *)
let test_take_after_run_exact () =
  let rt, om, jsonl = run_with_observer ~every_ms:60_000. in
  let snaps = Sampler.rows (Runtime.sampler rt) in
  let final = List.nth snaps (List.length snaps - 1) in
  let after = Observatory.take (Runtime.state rt) in
  check_hand_sum rt after;
  Alcotest.(check (list (pair string int)))
    "take after the run = the observer's final snapshot"
    (Metrics_snapshot.counters final)
    (Metrics_snapshot.counters after);
  Sys.remove om;
  Sys.remove jsonl

(* At quiescence the snapshot's run totals are the sums over the cycle
   records, on the aging card scan, the remembered-set scan and a
   two-worker crew (the only one that steals). *)
let test_run_totals_sim ~gc () =
  let _, rt = Driver.run_rt ~seed:42 ~scale:0.1 ~gc Profile.jack in
  let snap = Observatory.take (Runtime.state rt) in
  check "promoted" true (snap.Metrics_snapshot.promotions > 0);
  check "dirty cards found" true (snap.Metrics_snapshot.dirty_card_finds > 0);
  check_cycle_sums (Runtime.stats rt) snap

let test_run_totals_crew () =
  let _, rt =
    Driver.run_rt ~seed:42 ~scale:0.05 ~substrate:Substrate.Domains ~threads:2
      ~gc_workers:2 ~gc:(Gc_config.generational ()) Profile.anagram
  in
  let snap = Observatory.take (Runtime.state rt) in
  check_int "crew width" 2 snap.Metrics_snapshot.trace_workers;
  check "the crew tried to steal" true
    (snap.Metrics_snapshot.steals + snap.Metrics_snapshot.steal_failures > 0);
  check_cycle_sums (Runtime.stats rt) snap

let test_observer_zero_cadence_ticks () =
  (* cadence far beyond the run length: the stop-time snapshot is still
     taken, so every sink gets exactly one record *)
  let rt, om, jsonl = run_with_observer ~every_ms:60_000. in
  check_int "exactly the final snapshot" 1
    (List.length (Sampler.rows (Runtime.sampler rt)));
  (match Openmetrics.validate (read_file om) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "om sink invalid: %s" e);
  check_int "one JSONL line" 1
    (List.length
       (String.split_on_char '\n' (read_file jsonl)
       |> List.filter (fun l -> l <> "")));
  Sys.remove om;
  Sys.remove jsonl

let test_observer_rejects_sim () =
  let obs =
    Observer.create
      {
        Observer.every_ms = 10.;
        om_path = None;
        jsonl_path = None;
        live = false;
        labels = [];
      }
  in
  check "observer on sim substrate rejected" true
    (match
       Driver.run_rt ~scale:0.01 ~observer:obs
         ~gc:(Gc_config.generational ()) Profile.anagram
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Trajectory schema v2 + attribution                                  *)
(* ------------------------------------------------------------------ *)

let mk_traj metrics =
  Trajectory.make ~scale:0.05 ~seed:42 ~quick:true
    [ { Trajectory.name = "s1"; wall_ms = 1.; metrics } ]

let v2_metrics =
  [
    ("elapsed_multi", 1000.);
    ("collector_work", 400.);
    ("phase_trace", 300.);
    ("phase_sweep", 100.);
    ("ctr_promotions", 50.);
  ]

let test_trajectory_v2_roundtrip () =
  let t = mk_traj v2_metrics in
  check_int "current schema is v2" 2 Trajectory.schema_version;
  match Trajectory.of_json (Trajectory.to_json t) with
  | Error e -> Alcotest.failf "v2 round-trip failed: %s" e
  | Ok t' ->
      check_int "version" t.Trajectory.schema_version t'.Trajectory.schema_version;
      Alcotest.(check (list (pair string (float 1e-9))))
        "metrics survive"
        (List.hd t.Trajectory.scenarios).Trajectory.metrics
        (List.hd t'.Trajectory.scenarios).Trajectory.metrics

let v1_json =
  Json.Obj
    [
      ("schema", Json.String "otfgc-bench-trajectory");
      ("schema_version", Json.Int 1);
      ("scale", Json.Float 0.05);
      ("seed", Json.Int 42);
      ("quick", Json.Bool true);
      ( "scenarios",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "s1");
                ("wall_ms", Json.Float 1.);
                ("metrics", Json.Obj [ ("elapsed_multi", Json.Float 9.) ]);
              ];
          ] );
    ]

let test_trajectory_reads_v1 () =
  match Trajectory.of_json v1_json with
  | Error e -> Alcotest.failf "v1 record rejected: %s" e
  | Ok t -> check_int "v1 version preserved" 1 t.Trajectory.schema_version

let test_trajectory_rejects_v3 () =
  let j =
    match v1_json with
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (function
               | "schema_version", _ -> ("schema_version", Json.Int 3)
               | kv -> kv)
             kvs)
    | _ -> assert false
  in
  check "future version rejected" true (Result.is_error (Trajectory.of_json j))

let test_attribution_ranks_movement () =
  let baseline = mk_traj v2_metrics in
  let current =
    mk_traj
      [
        ("elapsed_multi", 1100.);
        ("collector_work", 520.);
        ("phase_trace", 430.); (* +43.3% — the mover *)
        ("phase_sweep", 105.); (* +5% *)
        ("ctr_promotions", 55.); (* +10% *)
      ]
  in
  let rows = Trajectory.attribution ~baseline ~current in
  check "three movers found" true (List.length rows = 3);
  check_str "biggest mover first" "phase_trace"
    (List.hd rows).Trajectory.r_metric;
  let rendered = Trajectory.render_attribution rows in
  check "table names the mover" true
    (contains ~affix:"phase_trace" rendered);
  (* gated aggregates are not attribution rows *)
  check "aggregates excluded" true
    (not (List.exists (fun r -> r.Trajectory.r_metric = "collector_work") rows))

let test_attribution_empty_for_v1 () =
  let baseline = mk_traj [ ("elapsed_multi", 9.) ] in
  let current = mk_traj v2_metrics in
  check "no shared phase/ctr metrics" true
    (Trajectory.attribution ~baseline ~current = []);
  check "render explains absence" true
    (contains ~affix:"schema v2"
       (Trajectory.render_attribution []))

let test_diff_worst_offender_line () =
  let baseline = mk_traj v2_metrics in
  let current =
    mk_traj (List.map (fun (k, v) -> (k, v *. 2.)) v2_metrics)
  in
  match Trajectory.diff ~baseline ~current () with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok regs ->
      check "regressions found" true (regs <> []);
      let verdict = Trajectory.render_diff ~baseline ~current regs in
      check "worst offender named" true
        (contains ~affix:"worst offender: scenario s1" verdict)

(* ------------------------------------------------------------------ *)
(* Dashboard                                                           *)
(* ------------------------------------------------------------------ *)

let test_dashboard_renders_and_validates () =
  let r1 = mk_traj v2_metrics in
  let r2 = mk_traj (List.map (fun (k, v) -> (k, v *. 1.1)) v2_metrics) in
  match Dashboard.render ~runs:[ ("BENCH_0001", r1); ("current", r2) ] with
  | Error e -> Alcotest.failf "render failed: %s" e
  | Ok html -> (
      match Dashboard.validate html with
      | Ok () -> ()
      | Error e -> Alcotest.failf "dashboard invalid: %s" e)

let test_dashboard_single_run () =
  match Dashboard.render ~runs:[ ("current", mk_traj v2_metrics) ] with
  | Error e -> Alcotest.failf "single-run render failed: %s" e
  | Ok html -> (
      match Dashboard.validate html with
      | Ok () -> ()
      | Error e -> Alcotest.failf "single-run dashboard invalid: %s" e)

let test_dashboard_empty_rejected () =
  check "empty runs rejected" true (Result.is_error (Dashboard.render ~runs:[]));
  check "junk html rejected" true
    (Result.is_error (Dashboard.validate "<!DOCTYPE html>\n<html></html>"))

let suites =
  [
    ( "live_metrics.snapshot",
      [
        Alcotest.test_case "fresh runtime" `Quick test_snapshot_fresh;
        Alcotest.test_case "monotone delta" `Quick test_snapshot_monotone_delta;
      ] );
    ( "live_metrics.openmetrics",
      [
        Alcotest.test_case "render validates" `Quick test_om_render_validates;
        Alcotest.test_case "deterministic ordering" `Quick
          test_om_deterministic_order;
        Alcotest.test_case "label escaping" `Quick test_om_escaping;
        Alcotest.test_case "validator rejects" `Quick test_om_validator_rejects;
        Alcotest.test_case "validator accepts labels" `Quick
          test_om_validator_accepts_labels;
      ] );
    ( "live_metrics.observer",
      [
        Alcotest.test_case "final snapshot exact" `Quick
          test_observer_final_exact;
        Alcotest.test_case "take after run exact" `Quick
          test_take_after_run_exact;
        Alcotest.test_case "zero cadence ticks" `Quick
          test_observer_zero_cadence_ticks;
        Alcotest.test_case "rejected on sim" `Quick test_observer_rejects_sim;
      ] );
    ( "live_metrics.run_totals",
      [
        Alcotest.test_case "jack aging:2 = sum over cycles" `Quick
          (test_run_totals_sim ~gc:(Gc_config.aging ~oldest_age:2 ()));
        Alcotest.test_case "jack remset = sum over cycles" `Quick
          (test_run_totals_sim
             ~gc:
               (Gc_config.generational ~intergen:Gc_config.Remembered_set ()));
        Alcotest.test_case "anagram crew of 2 = sum over cycles" `Quick
          test_run_totals_crew;
      ] );
    ( "live_metrics.trajectory",
      [
        Alcotest.test_case "v2 round-trip" `Quick test_trajectory_v2_roundtrip;
        Alcotest.test_case "reads v1" `Quick test_trajectory_reads_v1;
        Alcotest.test_case "rejects v3" `Quick test_trajectory_rejects_v3;
        Alcotest.test_case "attribution ranks movement" `Quick
          test_attribution_ranks_movement;
        Alcotest.test_case "attribution empty for v1" `Quick
          test_attribution_empty_for_v1;
        Alcotest.test_case "worst offender line" `Quick
          test_diff_worst_offender_line;
      ] );
    ( "live_metrics.dashboard",
      [
        Alcotest.test_case "renders and validates" `Quick
          test_dashboard_renders_and_validates;
        Alcotest.test_case "single run" `Quick test_dashboard_single_run;
        Alcotest.test_case "empty rejected" `Quick test_dashboard_empty_rejected;
      ] );
  ]
