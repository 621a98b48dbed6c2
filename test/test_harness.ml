(* Tests for the domain-parallel experiment harness: Lab.run_many must
   be independent of the jobs count (every simulation is deterministic
   in its configuration), and the persistent disk cache must round-trip
   results, fall back to recomputation on corrupt or stale records, and
   expose its activity through the lab counters. *)

module Lab = Otfgc_experiments.Lab
module Registry = Otfgc_experiments.Registry
module Profile = Otfgc_workloads.Profile
module R = Otfgc_metrics.Run_result

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tiny_scale = 0.01

(* A fresh directory name under the system temp dir; the lab itself
   creates it on first store. *)
let fresh_cache_dir () =
  let f = Filename.temp_file "otfgc-harness" ".cache" in
  Sys.remove f;
  f

let no_cache = (None : string option)

(* ------------------------------------------------------------------ *)
(* run_many: batching and determinism                                  *)
(* ------------------------------------------------------------------ *)

(* Eight distinct configurations across profiles, modes, card and young
   sizes — the grid the acceptance criterion asks for. *)
let grid =
  [
    Lab.cfg Profile.jack;
    Lab.cfg ~mode:Lab.Non_gen Profile.jack;
    Lab.cfg ~mode:(Lab.Aging 2) Profile.jack;
    Lab.cfg ~mode:Lab.Adaptive Profile.jack;
    Lab.cfg ~young:(256 * 1024) Profile.jack;
    Lab.cfg Profile.anagram;
    Lab.cfg ~mode:Lab.Non_gen Profile.anagram;
    Lab.cfg ~card:64 Profile.anagram;
  ]

let test_run_many_parallel_equals_sequential () =
  let seq_lab = Lab.create ~scale:tiny_scale ~jobs:1 ~cache_dir:no_cache () in
  let par_lab = Lab.create ~scale:tiny_scale ~jobs:4 ~cache_dir:no_cache () in
  let seq = Lab.run_many seq_lab grid in
  let par = Lab.run_many par_lab grid in
  check_int "sequential computed the whole grid" (List.length grid)
    (Lab.counters seq_lab).Lab.computed;
  check_int "parallel computed the whole grid" (List.length grid)
    (Lab.counters par_lab).Lab.computed;
  check "jobs>1 results identical to sequential" true
    (List.for_all2 (fun a b -> compare a b = 0) seq par)

let test_run_many_order_and_dedup () =
  let lab = Lab.create ~scale:tiny_scale ~jobs:2 ~cache_dir:no_cache () in
  let cfgs =
    [ Lab.cfg Profile.jack; Lab.cfg Profile.anagram; Lab.cfg Profile.jack ]
  in
  let rs = Lab.run_many lab cfgs in
  check_int "three results" 3 (List.length rs);
  check "results align with submissions" true
    (List.for_all2
       (fun c r -> c.Lab.profile.Profile.name = r.R.workload)
       cfgs rs);
  check_int "duplicate simulated once" 2 (Lab.counters lab).Lab.computed;
  check "duplicates share the memoised run" true
    (List.nth rs 0 == List.nth rs 2)

let test_run_many_agrees_with_run () =
  let lab = Lab.create ~scale:tiny_scale ~jobs:2 ~cache_dir:no_cache () in
  let batched = Lab.run_many lab [ Lab.cfg ~card:64 Profile.jack ] in
  let single = Lab.run lab ~card:64 Profile.jack in
  check "same memoised result" true (List.hd batched == single)

(* Byte-identity guard for the hot-path data structures (bitmap
   segregated freelist, array gray stack, card crossing map): they are
   pure representation changes, so every simulated figure must stay
   bit-for-bit what the original list-based structures produced.  The
   digests below were recorded from the list-based implementation over
   the same grid (Marshal of the full Run_result at scale 0.05 — large
   enough that every configuration digests differently).  A mismatch
   means an allocation decision, scan order or schedule changed.

   Re-recorded when Run_result gained the floating-garbage fields
   (avg/max floating objects and bytes): adding record fields changes
   the Marshal bytes even when the simulation is identical.  The switch
   was verified behaviour-preserving by digesting the JSON projection
   of the *old* fields before and after the change — all eight
   projections matched bit for bit; only the record layout moved. *)
let recorded_digests =
  [
    "ff3899bf00127bb57893990a38a5d97a";
    "5d6dd7d4ea5b4335c5fb9800a3e26094";
    "d8d671f4b2185001ed676dd22468876f";
    "7d70780d4c70524291ed7d09ac36a164";
    "4bb1612589a0cfcff83842d17a4291fe";
    "8bbb532a3574760e424c302336e9765b";
    "44f83d4f3f202678977fa9e1f0415564";
    "005db066dad16578e1a643890edc08d3";
  ]

let test_run_many_byte_identical_to_recorded () =
  let lab = Lab.create ~scale:0.05 ~jobs:1 ~cache_dir:no_cache () in
  let digests =
    List.map
      (fun r -> Digest.to_hex (Digest.string (Marshal.to_string r [])))
      (Lab.run_many lab grid)
  in
  (* all eight configurations really behave differently at this scale *)
  check_int "digests distinct"
    (List.length grid)
    (List.length (List.sort_uniq compare digests));
  List.iteri
    (fun i (want, got) ->
      Alcotest.(check string) (Printf.sprintf "config %d digest" i) want got)
    (List.combine recorded_digests digests)

let test_registry_grids_cover_figures () =
  (* every figure both declares a grid and renders entirely from it:
     after a prefetch of [configs], running the figure simulates nothing *)
  List.iter
    (fun id ->
      let e = Option.get (Registry.find id) in
      let lab = Lab.create ~scale:tiny_scale ~jobs:1 ~cache_dir:no_cache () in
      Lab.prefetch lab e.Registry.configs;
      let computed_before = (Lab.counters lab).Lab.computed in
      check "grid is non-empty" true (e.Registry.configs <> []);
      ignore (e.Registry.run lab : Otfgc_support.Textable.t);
      check_int
        (Printf.sprintf "%s renders with zero extra simulations" id)
        computed_before (Lab.counters lab).Lab.computed)
    [ "fig8"; "fig10" ];
  check "every registry entry has a grid" true
    (List.for_all (fun e -> e.Registry.configs <> []) Registry.all)

let test_regenerate_scale_split () =
  (* the one figure path renders a headline entry at the given scale
     and a sweep entry at half of it, each equal to the entry's own
     [run] on a lab at that scale *)
  let scale = 4. *. tiny_scale in
  let fig8 = Option.get (Registry.find "fig8")
  and abl = Option.get (Registry.find "ablationA") in
  check "fig8 is a headline entry, ablationA a sweep" true
    ((not fig8.Registry.heavy) && abl.Registry.heavy);
  let tables, c =
    Registry.regenerate ~scale ~jobs:1 ~cache_dir:no_cache [ fig8; abl ]
  in
  let alone e scale =
    let lab = Lab.create ~scale ~jobs:1 ~cache_dir:no_cache () in
    Otfgc_support.Textable.render (e.Registry.run lab)
  in
  Alcotest.(check (list string))
    "fig8 at the scale, ablationA at half"
    [ alone fig8 scale; alone abl (scale /. 2.) ]
    (List.map Otfgc_support.Textable.render tables);
  let unique e = List.length (List.sort_uniq compare e.Registry.configs) in
  check_int "the counters sum both labs" (unique fig8 + unique abl)
    c.Lab.computed

(* ------------------------------------------------------------------ *)
(* Persistent cache                                                    *)
(* ------------------------------------------------------------------ *)

let test_cache_roundtrip () =
  let dir = fresh_cache_dir () in
  let mk () =
    Lab.create ~scale:tiny_scale ~jobs:1 ~cache_dir:(Some dir) ()
  in
  let lab1 = mk () in
  let r1 = Lab.run lab1 Profile.jack in
  let c1 = Lab.counters lab1 in
  check_int "cold lab simulates" 1 c1.Lab.computed;
  check_int "cold lab reads nothing" 0 c1.Lab.disk_hits;
  let path = Option.get (Lab.cache_path lab1 (Lab.cfg Profile.jack)) in
  check "record written" true (Sys.file_exists path);
  (* a fresh lab (fresh process, in effect) resolves from disk *)
  let lab2 = mk () in
  let r2 = Lab.run lab2 Profile.jack in
  let c2 = Lab.counters lab2 in
  check_int "warm lab simulates nothing" 0 c2.Lab.computed;
  check_int "warm lab hits disk" 1 c2.Lab.disk_hits;
  check "reloaded result equals computed result" true (compare r1 r2 = 0)

let test_cache_corrupt_record_recomputes () =
  let dir = fresh_cache_dir () in
  let mk () =
    Lab.create ~scale:tiny_scale ~jobs:1 ~cache_dir:(Some dir) ()
  in
  let lab1 = mk () in
  ignore (Lab.run lab1 Profile.jack : R.t);
  let path = Option.get (Lab.cache_path lab1 (Lab.cfg Profile.jack)) in
  let oc = open_out_bin path in
  output_string oc "not a marshalled record";
  close_out oc;
  let lab2 = mk () in
  ignore (Lab.run lab2 Profile.jack : R.t);
  let c2 = Lab.counters lab2 in
  check_int "corrupt record ignored, run recomputed" 1 c2.Lab.computed;
  check_int "no disk hit" 0 c2.Lab.disk_hits

let test_cache_version_mismatch_recomputes () =
  let dir = fresh_cache_dir () in
  let mk () =
    Lab.create ~scale:tiny_scale ~jobs:1 ~cache_dir:(Some dir) ()
  in
  let lab1 = mk () in
  let r1 = Lab.run lab1 Profile.jack in
  let path = Option.get (Lab.cache_path lab1 (Lab.cfg Profile.jack)) in
  let key = Filename.chop_suffix (Filename.basename path) ".run" in
  (* rewrite the record as if a future schema version had produced it *)
  let oc = open_out_bin path in
  Marshal.to_channel oc (Lab.cache_version + 1, key, r1) [];
  close_out oc;
  let lab2 = mk () in
  ignore (Lab.run lab2 Profile.jack : R.t);
  let c2 = Lab.counters lab2 in
  check_int "stale version ignored, run recomputed" 1 c2.Lab.computed;
  check_int "no disk hit" 0 c2.Lab.disk_hits;
  (* recomputation repaired the record at the current version *)
  let lab3 = mk () in
  ignore (Lab.run lab3 Profile.jack : R.t);
  check_int "repaired record hits" 1 (Lab.counters lab3).Lab.disk_hits

let test_cache_disabled () =
  let lab = Lab.create ~scale:tiny_scale ~jobs:1 ~cache_dir:no_cache () in
  check "no cache path" true (Lab.cache_path lab (Lab.cfg Profile.jack) = None);
  ignore (Lab.run lab Profile.jack : R.t);
  check_int "computed" 1 (Lab.counters lab).Lab.computed

let suites =
  [
    ( "harness.run_many",
      [
        Alcotest.test_case "parallel equals sequential" `Quick
          test_run_many_parallel_equals_sequential;
        Alcotest.test_case "order and dedup" `Quick test_run_many_order_and_dedup;
        Alcotest.test_case "agrees with run" `Quick test_run_many_agrees_with_run;
        Alcotest.test_case "byte-identical to recorded digests" `Quick
          test_run_many_byte_identical_to_recorded;
        Alcotest.test_case "registry grids cover figures" `Quick
          test_registry_grids_cover_figures;
        Alcotest.test_case "regenerate splits the scale" `Quick
          test_regenerate_scale_split;
      ] );
    ( "harness.cache",
      [
        Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
        Alcotest.test_case "corrupt record" `Quick
          test_cache_corrupt_record_recomputes;
        Alcotest.test_case "version mismatch" `Quick
          test_cache_version_mismatch_recomputes;
        Alcotest.test_case "disabled" `Quick test_cache_disabled;
      ] );
  ]
