(* Tests for the heap observatory: the census time series and its
   support structures (Timeseries, Svg), the out-of-band guarantee
   (arming the sampler leaves every simulated figure bit-identical),
   the census accounting invariants (per-color bytes partition the
   heap; generations partition the allocated bytes), the HTML/SVG
   report emitter and its structural validator, and the cross-run
   trajectory store with its regression gate — including the committed
   BENCH_*.json baseline that arms the CI gate. *)

open Otfgc
module Timeseries = Otfgc_support.Timeseries
module Svg = Otfgc_support.Svg
module Json = Otfgc_support.Json
module Heap = Otfgc_heap.Heap
module Profile = Otfgc_workloads.Profile
module Driver = Otfgc_workloads.Driver
module Report = Otfgc_metrics.Report
module Trajectory = Otfgc_metrics.Trajectory
module R = Otfgc_metrics.Run_result

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Timeseries                                                          *)
(* ------------------------------------------------------------------ *)

let test_timeseries_basics () =
  let ts = Timeseries.create ~columns:[| "a"; "b"; "c" |] in
  check_int "no rows" 0 (Timeseries.length ts);
  check_int "three columns" 3 (Timeseries.n_columns ts);
  check "col_index" true (Timeseries.col_index ts "b" = Some 1);
  check "unknown column" true (Timeseries.col_index ts "z" = None);
  Timeseries.set ts 0 10;
  Timeseries.set ts 2 30;
  Timeseries.commit ts;
  (* staged values persist across commits unless overwritten *)
  Timeseries.set ts 1 99;
  Timeseries.commit ts;
  check_int "two rows" 2 (Timeseries.length ts);
  check_int "a0" 10 (Timeseries.get ts ~col:0 ~row:0);
  check_int "b0 defaulted" 0 (Timeseries.get ts ~col:1 ~row:0);
  check_int "c0" 30 (Timeseries.get ts ~col:2 ~row:0);
  check_int "a1 retained" 10 (Timeseries.get ts ~col:0 ~row:1);
  check_int "b1" 99 (Timeseries.get ts ~col:1 ~row:1);
  Timeseries.clear ts;
  check_int "cleared" 0 (Timeseries.length ts);
  Timeseries.commit ts;
  check_int "staged row zeroed by clear" 0 (Timeseries.get ts ~col:0 ~row:0)

let test_timeseries_growth () =
  let ts = Timeseries.create ~columns:[| "x" |] in
  for i = 1 to 1000 do
    Timeseries.set ts 0 i;
    Timeseries.commit ts
  done;
  check_int "all rows kept across doublings" 1000 (Timeseries.length ts);
  check_int "first" 1 (Timeseries.get ts ~col:0 ~row:0);
  check_int "last" 1000 (Timeseries.get ts ~col:0 ~row:999)

let test_timeseries_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "empty columns rejected" true
    (raises (fun () -> Timeseries.create ~columns:[||]));
  check "duplicate columns rejected" true
    (raises (fun () -> Timeseries.create ~columns:[| "a"; "a" |]));
  let ts = Timeseries.create ~columns:[| "a" |] in
  check "set out of range" true (raises (fun () -> Timeseries.set ts 1 0));
  check "get out of range" true
    (raises (fun () -> Timeseries.get ts ~col:0 ~row:0))

let test_timeseries_export () =
  let ts = Timeseries.create ~columns:[| "t"; "v" |] in
  Timeseries.set ts 0 1;
  Timeseries.set ts 1 5;
  Timeseries.commit ts;
  Timeseries.set ts 0 2;
  Timeseries.set ts 1 7;
  Timeseries.commit ts;
  check_str "csv" "t,v\n1,5\n2,7\n" (Timeseries.to_csv ts);
  let j = Timeseries.to_json ts in
  check "json length" true (Option.bind (Json.member "length" j) Json.as_int = Some 2);
  (match Option.bind (Json.member "series" j) (Json.member "v") with
  | Some (Json.List [ Json.Int 5; Json.Int 7 ]) -> ()
  | _ -> Alcotest.fail "json series.v should be [5, 7]")

(* ------------------------------------------------------------------ *)
(* Svg emitter                                                         *)
(* ------------------------------------------------------------------ *)

let test_svg_escaping () =
  let s =
    Svg.to_string
      (Svg.text ~x:1. ~y:2. ~attrs:[ ("data-x", "a<b&\"c\"") ] "x < y & z")
  in
  check "text escaped" true (contains s "x &lt; y &amp; z");
  check "attr escaped" true (contains s "a&lt;b&amp;&quot;c&quot;");
  check "no raw ampersand-quote" false (contains s "&\"")

let test_svg_shapes () =
  let s = Svg.to_string (Svg.rect ~x:0. ~y:0. ~w:10. ~h:5. ~cls:"box" ()) in
  check "self-closing" true (contains s "/>");
  check "class attr" true (contains s "class=\"box\"");
  let p =
    Svg.to_string (Svg.polyline ~points:[ (1.0, 2.5); (3.25, 4.0) ] ())
  in
  check "coords trimmed" true (contains p "points=\"1,2.5 3.25,4\"");
  check "coord formatting" true (Svg.fmt_coord 12.50 = "12.5" && Svg.fmt_coord 3.0 = "3");
  check "non-finite rejected" true
    (try ignore (Svg.fmt_coord Float.nan); false
     with Invalid_argument _ -> true);
  let root = Svg.to_string (Svg.svg ~w:10 ~h:20 []) in
  check "root has xmlns" true (contains root "xmlns=");
  check "root has viewBox" true (contains root "viewBox=\"0 0 10 20\"")

(* ------------------------------------------------------------------ *)
(* Census sampling                                                     *)
(* ------------------------------------------------------------------ *)

let default_gc = Gc_config.generational ~young_bytes:(512 * 1024) ()

let sampled_run ?(gc = default_gc) ?(card = 16) ?(seed = 42) ?(scale = 0.01)
    ?(events = false) ~every profile =
  Driver.run_rt
    ~heap:{ Driver.default_heap with Heap.card_size = card }
    ~seed ~scale
    ~instrument:(fun rt ->
      if events then Runtime.arm_recorder rt;
      Sampler.configure (Runtime.sampler rt) ~every)
    ~gc profile

(* the five color columns partition the heap capacity; the two
   generation columns partition the allocated bytes *)
let check_census_sums series =
  let get c r = Timeseries.get series ~col:c ~row:r in
  let bad = ref 0 in
  for r = 0 to Timeseries.length series - 1 do
    let colors =
      get Sampler.i_blue_bytes r + get Sampler.i_c0_bytes r
      + get Sampler.i_c1_bytes r + get Sampler.i_gray_bytes r
      + get Sampler.i_black_bytes r
    in
    let gens = get Sampler.i_young_bytes r + get Sampler.i_old_bytes r in
    if colors <> get Sampler.i_capacity r then incr bad;
    if gens <> get Sampler.i_allocated_bytes r then incr bad
  done;
  !bad

let test_census_partitions_heap () =
  let _, rt = sampled_run ~every:2_000 Profile.anagram in
  let series = Sampler.series (Runtime.sampler rt) in
  Observatory.sample_now (Runtime.state rt);
  check "several samples" true (Timeseries.length series > 3);
  check_int "every row partitions capacity and allocation" 0
    (check_census_sums series)

let prop_census_sums =
  QCheck.Test.make ~name:"census partitions hold for any seed and mode"
    ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let gc =
        match seed mod 4 with
        | 0 -> default_gc
        | 1 -> { Gc_config.non_generational with Gc_config.young_bytes = 512 * 1024 }
        | 2 -> Gc_config.aging ~young_bytes:(512 * 1024) ~oldest_age:2 ()
        | _ -> Gc_config.adaptive ~young_bytes:(512 * 1024) ()
      in
      let _, rt = sampled_run ~gc ~seed ~every:1_500 Profile.anagram in
      Observatory.sample_now (Runtime.state rt);
      let series = Sampler.series (Runtime.sampler rt) in
      if Timeseries.length series = 0 then
        QCheck.Test.fail_report "no samples taken";
      check_census_sums series = 0)

(* Arming the sampler (census heap walks + reachability oracle per
   row) or the event recorder must leave the simulation bit-identical:
   same grid as the harness digest guard, Marshal digests compared
   between a plain, a sampled and a recorded run of each
   configuration. *)
let grid =
  let young = 512 * 1024 in
  [
    (Profile.jack, Gc_config.generational ~young_bytes:young (), 16);
    ( Profile.jack,
      { Gc_config.non_generational with Gc_config.young_bytes = young },
      16 );
    (Profile.jack, Gc_config.aging ~young_bytes:young ~oldest_age:2 (), 16);
    (Profile.jack, Gc_config.adaptive ~young_bytes:young (), 16);
    (Profile.jack, Gc_config.generational ~young_bytes:(256 * 1024) (), 16);
    (Profile.anagram, Gc_config.generational ~young_bytes:young (), 16);
    ( Profile.anagram,
      { Gc_config.non_generational with Gc_config.young_bytes = young },
      16 );
    (Profile.anagram, Gc_config.generational ~young_bytes:young (), 64);
  ]

let test_sampling_is_out_of_band () =
  List.iteri
    (fun i (profile, gc, card) ->
      let heap = { Driver.default_heap with Heap.card_size = card } in
      let plain = Driver.run ~heap ~seed:42 ~scale:0.05 ~gc profile in
      let sampled, rt =
        sampled_run ~gc ~card ~scale:0.05 ~every:7_777 profile
      in
      check
        (Printf.sprintf "config %d sampled at least once" i)
        true
        (Timeseries.length (Sampler.series (Runtime.sampler rt)) > 0);
      let digest r = Digest.to_hex (Digest.string (Marshal.to_string r [])) in
      check_str
        (Printf.sprintf "config %d digest unchanged by sampling" i)
        (digest plain) (digest sampled);
      let recorded, rt =
        Driver.run_rt ~heap ~seed:42 ~scale:0.05
          ~instrument:Runtime.arm_recorder ~gc profile
      in
      check
        (Printf.sprintf "config %d recorded events" i)
        true
        (Flight_recorder.length (Runtime.recorder rt) > 0);
      check_str
        (Printf.sprintf "config %d digest unchanged by the recorder" i)
        (digest plain) (digest recorded))
    grid

(* ------------------------------------------------------------------ *)
(* Report emitter and validator                                        *)
(* ------------------------------------------------------------------ *)

let render_report () =
  let _, rt = sampled_run ~scale:0.02 ~events:true ~every:5_000 Profile.jack in
  Observatory.sample_now (Runtime.state rt);
  match Report.of_runtime ~workload:"jack" rt with
  | Ok html -> html
  | Error e -> Alcotest.failf "report render failed: %s" e

let test_report_renders_and_validates () =
  let html = render_report () in
  check "validator accepts" true (Report.validate html = Ok ());
  List.iter
    (fun needle ->
      check (needle ^ " present") true (contains html needle))
    [ "<svg"; "ribbon-blue"; "ribbon-black"; "promotion"; "strip-cycle"; "jack" ]

let test_report_needs_samples () =
  let rt =
    Runtime.create
      ~heap_config:{ Heap.initial_bytes = 16 * 1024; max_bytes = 64 * 1024; card_size = 16 }
      ~gc_config:default_gc ()
  in
  match Report.of_runtime rt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "report from an unsampled runtime should refuse"

let test_report_validator_rejects () =
  let html = render_report () in
  let rejects what doc =
    match Report.validate doc with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "validator accepted %s" what
  in
  rejects "empty document" "";
  rejects "missing doctype" "<html><body>hi</body></html>";
  rejects "truncated document" (String.sub html 0 (String.length html / 2));
  let inject needle extra =
    match String.index_opt html '<' with
    | None -> Alcotest.fail "no tags?"
    | Some _ ->
        let i = String.length html - String.length needle in
        let rec find j =
          if j < 0 then Alcotest.failf "%s not found" needle
          else if String.sub html j (String.length needle) = needle then j
          else find (j - 1)
        in
        let j = find i in
        String.sub html 0 j ^ extra ^ String.sub html j (String.length html - j)
  in
  rejects "script element" (inject "</body>" "<script>alert(1)</script>");
  rejects "external image" (inject "</body>" "<img src=\"http://x/y.png\"/>");
  rejects "unbalanced tag" (inject "</body>" "<g>");
  rejects "non-finite points"
    (inject "</body>" "<svg><polyline points=\"1,nan 2,3\"/></svg>")

(* ------------------------------------------------------------------ *)
(* Trajectory store and regression gate                                *)
(* ------------------------------------------------------------------ *)

let mk_scenario name v =
  {
    Trajectory.name;
    wall_ms = 12.5;
    metrics = List.map (fun m -> (m, v)) Trajectory.gated_metrics;
  }

let test_trajectory_roundtrip () =
  let t =
    Trajectory.make ~scale:0.2 ~seed:42 ~quick:false
      [ mk_scenario "a" 100.; mk_scenario "b" 250. ]
  in
  match Trajectory.of_json (Trajectory.to_json t) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok t' -> check "roundtrip preserves the record" true (compare t t' = 0)

let test_trajectory_schema_rejections () =
  let t = Trajectory.make ~scale:0.2 ~seed:42 ~quick:false [ mk_scenario "a" 1. ] in
  let patch k v =
    match Trajectory.to_json t with
    | Json.Obj kvs -> Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs)
    | _ -> Alcotest.fail "to_json should produce an object"
  in
  let rejected j = match Trajectory.validate j with Error _ -> true | Ok () -> false in
  check "wrong schema tag" true (rejected (patch "schema" (Json.String "nope")));
  check "future schema version" true
    (rejected (patch "schema_version" (Json.Int (Trajectory.schema_version + 1))));
  check "empty scenarios" true (rejected (patch "scenarios" (Json.List [])));
  check "current record validates" true (not (rejected (Trajectory.to_json t)))

let test_trajectory_gate_fails_on_slowdown () =
  (* a real run feeds the current side; the baseline is the same run
     with elapsed_multi deflated 20% — i.e. the current build is an
     injected 25% slowdown over what was committed *)
  let r = Driver.run ~seed:42 ~scale:0.01 ~gc:default_gc Profile.anagram in
  let cur = Trajectory.scenario_of_result ~name:"anagram-gen" ~wall_ms:1. r in
  let deflate = function
    | ("elapsed_multi", v) -> ("elapsed_multi", v *. 0.8)
    | kv -> kv
  in
  let base = { cur with Trajectory.metrics = List.map deflate cur.Trajectory.metrics } in
  let baseline = Trajectory.make ~scale:0.01 ~seed:42 ~quick:true [ base ] in
  let current = Trajectory.make ~scale:0.01 ~seed:42 ~quick:true [ cur ] in
  match Trajectory.diff ~baseline ~current () with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok regs ->
      check_int "exactly the injected regression" 1 (List.length regs);
      let reg = List.hd regs in
      check_str "regressed metric" "elapsed_multi" reg.Trajectory.r_metric;
      check "delta is ~25%" true
        (abs_float (reg.Trajectory.r_delta_pct -. 25.) < 0.5);
      let table = Trajectory.render_diff ~baseline ~current regs in
      check "verdict names the scenario" true (contains table "anagram-gen");
      check "verdict shouts" true (contains table "REGRESSION")

let test_trajectory_gate_passes_identical () =
  let r = Driver.run ~seed:42 ~scale:0.01 ~gc:default_gc Profile.anagram in
  let s = Trajectory.scenario_of_result ~name:"anagram-gen" ~wall_ms:1. r in
  let t = Trajectory.make ~scale:0.01 ~seed:42 ~quick:true [ s ] in
  (match Trajectory.diff ~baseline:t ~current:t () with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "identical records should not regress"
  | Error e -> Alcotest.failf "diff refused: %s" e);
  (* wall-clock noise must never gate *)
  let noisy =
    Trajectory.make ~scale:0.01 ~seed:42 ~quick:true
      [ { s with Trajectory.wall_ms = s.Trajectory.wall_ms *. 50. } ]
  in
  match Trajectory.diff ~baseline:t ~current:noisy () with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "wall_ms is informational, not gated"
  | Error e -> Alcotest.failf "diff refused: %s" e

let test_trajectory_incompatible_baseline () =
  let a = Trajectory.make ~scale:0.2 ~seed:42 ~quick:false [ mk_scenario "a" 1. ] in
  let b = Trajectory.make ~scale:0.1 ~seed:42 ~quick:false [ mk_scenario "a" 1. ] in
  (match Trajectory.diff ~baseline:a ~current:b () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "scale mismatch must not be gated silently");
  let c = Trajectory.make ~scale:0.2 ~seed:42 ~quick:true [ mk_scenario "a" 1. ] in
  match Trajectory.diff ~baseline:a ~current:c () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "quick mismatch must not be gated silently"

(* The baseline committed at the repo root (dune runs tests from
   _build/default/test, so walk up). *)
let test_committed_baseline_validates () =
  let rec find dir =
    let candidate = Filename.concat dir "BENCH_0005.json" in
    if Sys.file_exists candidate then Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find parent
  in
  match find (Sys.getcwd ()) with
  | None -> Alcotest.fail "BENCH_0005.json not found in any parent directory"
  | Some path -> (
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.of_string contents with
      | Error e -> Alcotest.failf "%s: parse error %s" path e
      | Ok j -> (
          match Trajectory.of_json j with
          | Error e -> Alcotest.failf "%s: %s" path e
          | Ok t ->
              check_int "eight scenarios" 8 (List.length t.Trajectory.scenarios);
              check "quick grid (the CI gate's shape)" true t.Trajectory.quick;
              List.iter
                (fun (s : Trajectory.scenario) ->
                  List.iter
                    (fun m ->
                      check
                        (Printf.sprintf "%s has %s" s.Trajectory.name m)
                        true
                        (List.mem_assoc m s.Trajectory.metrics))
                    Trajectory.gated_metrics)
                t.Trajectory.scenarios))

let suites =
  [
    ( "observatory.timeseries",
      [
        Alcotest.test_case "basics" `Quick test_timeseries_basics;
        Alcotest.test_case "growth" `Quick test_timeseries_growth;
        Alcotest.test_case "validation" `Quick test_timeseries_validation;
        Alcotest.test_case "export" `Quick test_timeseries_export;
      ] );
    ( "observatory.svg",
      [
        Alcotest.test_case "escaping" `Quick test_svg_escaping;
        Alcotest.test_case "shapes" `Quick test_svg_shapes;
      ] );
    ( "observatory.census",
      [
        Alcotest.test_case "partitions heap and allocation" `Quick
          test_census_partitions_heap;
        QCheck_alcotest.to_alcotest prop_census_sums;
        Alcotest.test_case "sampling is out of band (8-config digests)" `Quick
          test_sampling_is_out_of_band;
      ] );
    ( "observatory.report",
      [
        Alcotest.test_case "renders and validates" `Quick
          test_report_renders_and_validates;
        Alcotest.test_case "refuses unsampled runtime" `Quick
          test_report_needs_samples;
        Alcotest.test_case "validator rejects malformed documents" `Quick
          test_report_validator_rejects;
      ] );
    ( "observatory.trajectory",
      [
        Alcotest.test_case "json roundtrip" `Quick test_trajectory_roundtrip;
        Alcotest.test_case "schema rejections" `Quick
          test_trajectory_schema_rejections;
        Alcotest.test_case "gate fails on injected slowdown" `Quick
          test_trajectory_gate_fails_on_slowdown;
        Alcotest.test_case "gate passes identical and noisy-wall runs" `Quick
          test_trajectory_gate_passes_identical;
        Alcotest.test_case "incompatible baselines refuse to gate" `Quick
          test_trajectory_incompatible_baseline;
        Alcotest.test_case "committed BENCH_0005.json validates" `Quick
          test_committed_baseline_validates;
      ] );
  ]
