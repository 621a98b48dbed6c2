(* The repository benchmark.  Four workloads, two per substrate; every run
   prints every end-to-end metric by name and unit, checks the program's
   outputs, and ends with one JSON line:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   Usage:
     e2e.exe --seed 42 [--workload W]... [--seconds S] [--json FILE]
     e2e.exe ... --trace 1 [--trace-out FILE]
     e2e.exe --smoke        (from the repository root)

   Untraced, the metrics are the end-to-end ones.  Traced, the run spends
   half its time untraced and half traced, and the metrics are the
   per-layer ones plus the tracing overhead on each end-to-end metric.
   The exit code is 1 when any check fails.  README.md defines every
   metric. *)

module Json = Otfgc_support.Json
open Common

let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("ops_per_s", "1/s", "higher");
    ("op_p50_us", "us", "lower");
    ("op_p9999_us", "us", "lower");
    ("heap_mb", "MB", "lower");
    ("cost_units_per_kb", "units/KB", "lower");
  ]

(* [op_p99_us] is per-layer only: on dom-churn it sits on the knee where
   allocation stalls begin (p98.5 80 us, p99 100 us, p99.5 170-360 us), so
   it swings with how many requests stall. *)
let per_layer =
  let count = "count" and lower = "lower" in
  [
    ("op_p99_us", "us", lower);
    ("sched.steps", count, lower);
    ("sched.ns_per_step", "ns", lower);
    ("sched.other_s", "s", lower);
    ("collector.host_s", "s", lower);
    ("mutator.host_s", "s", lower);
    ("collector.busy_frac", "ratio", lower);
    ("collector.clear_s", "s", lower);
    ("collector.card_scan_s", "s", lower);
    ("collector.trace_s", "s", lower);
    ("collector.sweep_s", "s", lower);
    ("collector.cycles_partial", count, lower);
    ("collector.cycles_full", count, lower);
    ("collector.handshakes", count, lower);
    ("collector.handshake_s", "s", lower);
    ("collector.handshake_p99_us", "us", lower);
    ("collector.idle_s", "s", lower);
    ("collector.objects_traced", count, lower);
    ("collector.dirty_cards", count, lower);
    ("collector.card_scan_kb", "KB", lower);
    ("collector.freed_mb", "MB", lower);
    ("collector.promotions", count, lower);
    ("collector.pages_touched", count, lower);
    ("cost.handshake", "Munits", lower);
    ("cost.card_scan", "Munits", lower);
    ("cost.trace", "Munits", lower);
    ("cost.sweep", "Munits", lower);
    ("cost.mutator", "Munits", lower);
    ("cost.stall", "Munits", lower);
    ("runtime.alloc_calls", count, "higher");
    ("runtime.store_calls", count, "higher");
    ("runtime.load_calls", count, "higher");
    ("runtime.alloc_s", "s", lower);
    ("runtime.store_s", "s", lower);
    ("runtime.load_s", "s", lower);
    ("runtime.alloc_p50_ns", "ns", lower);
    ("runtime.alloc_p99_ns", "ns", lower);
    ("runtime.store_p50_ns", "ns", lower);
    ("runtime.store_p99_ns", "ns", lower);
    ("runtime.alloc_slow", count, lower);
    ("runtime.alloc_max_ms", "ms", lower);
    ("runtime.stalls", count, lower);
    ("runtime.lock_waits", count, lower);
    ("client.self_s", "s", lower);
    ("barrier.updates", count, "higher");
    ("barrier.card_marks", count, "higher");
    ("barrier.yellow_fires", count, lower);
    ("heap.capacity_mb", "MB", lower);
    ("heap.live_mb", "MB", lower);
    ("host.minor_gcs", count, lower);
    ("host.minor_mwords", "Mwords", lower);
    ("host.major_gcs", count, lower);
    ("host.top_heap_mb", "MB", lower);
  ]
  @ List.map (fun (n, _, _) -> ("trace." ^ n ^ "_pct", "%", lower)) end_to_end

type workload = Sim of Sim_bench.spec | Dom of Dom_bench.spec

let workloads =
  [
    ("sim-jack", Sim Sim_bench.jack);
    ("sim-anagram", Sim Sim_bench.anagram);
    ("dom-churn", Dom Dom_bench.churn);
    ("dom-kv", Dom Dom_bench.kv);
  ]

(* Profile scale of one simulated job (jack: 12 MB, ~3.5 s host time,
   ~120 000 operations): several jobs fit a run, so set-up, rate and p50
   are medians over several repeats.  The driver-equality check runs at a
   tenth of it. *)
let full_sim_scale = 0.6

let pass ~traced ~seed ~seconds ~sim_scale ?corrupt name =
  match List.assoc name workloads with
  | Sim spec -> Sim_bench.pass ~traced ~seed ~scale:sim_scale ~seconds spec
  | Dom spec -> Dom_bench.pass ~traced ~workload:name ~seed ~seconds ?corrupt spec

let finite x = if Float.is_finite x then x else 0.

type result = {
  name : string;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  lines : string list;  (** human-readable report *)
  trace : Json.t option;
}

let fmt_metric (n, v, u) = Printf.sprintf "  %-28s %16.6f %s" n v u

let run_workload ?(sim_scale = full_sim_scale) ~traced ~seed ~seconds ?corrupt name =
  let checks =
    match List.assoc name workloads with
    | Sim spec -> Sim_bench.driver_check ~seed ~scale:(sim_scale /. 10.) spec
    | Dom _ -> []
  in
  let e2e_of (o : outcome) =
    List.map (fun (n, u, _) -> (n, finite (List.assoc n o.e2e), u)) end_to_end
  in
  let pass = pass ~seed ~sim_scale ?corrupt name in
  let base = pass ~traced:false ~seconds:(if traced then seconds /. 2. else seconds) in
  let base_e2e = e2e_of base in
  let header = Printf.sprintf "== %s (seed %d, %g s%s) ==" name seed seconds
      (if traced then ", half traced" else "") in
  (* a failed driver-equality check fails the whole run *)
  let failed attempted n = if checks = [] then n else attempted in
  if not traced then
    {
      name;
      attempted = base.attempted;
      failed = failed base.attempted base.failed;
      errors = checks @ base.errors;
      metrics = base_e2e;
      lines = header :: List.map fmt_metric base_e2e;
      trace = None;
    }
  else
    let tr = pass ~traced:true ~seconds:(seconds /. 2.) in
    let tr_e2e = e2e_of tr in
    (* percent by which tracing worsens each end-to-end metric *)
    let overhead =
      List.map2
        (fun ((n, _, better), (_, b, _)) (_, t, _) ->
          let worse = if better = "higher" then b -. t else t -. b in
          ("trace." ^ n ^ "_pct", if b = 0. then 0. else worse /. b *. 100.))
        (List.combine end_to_end base_e2e)
        tr_e2e
    in
    (* the untraced half's p99: tracing inflates every latency *)
    let p99 = ("op_p99_us", List.assoc "op_p99_us" base.e2e) in
    let layers =
      List.map
        (fun (n, u, _) ->
          ( n,
            finite (Option.value ~default:0. (List.assoc_opt n ((p99 :: tr.layers) @ overhead))),
            u ))
        per_layer
    in
    {
      name;
      attempted = base.attempted + tr.attempted;
      failed = failed (base.attempted + tr.attempted) (base.failed + tr.failed);
      errors = checks @ base.errors @ tr.errors;
      metrics = layers;
      lines =
        (header :: "untraced half:" :: List.map fmt_metric base_e2e)
        @ ("traced half:" :: List.map fmt_metric tr_e2e)
        @ ("per layer (traced half):" :: List.map fmt_metric layers)
        @ tr.notes;
      trace = tr.trace;
    }

let ok r = r.errors = [] && r.failed = 0

let metrics_json ~key results =
  Json.Obj
    (List.concat_map
       (fun r ->
         List.map
           (fun (n, v, u) ->
             (key r n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
           r.metrics)
       results)

(* The result line.  With several workloads the keys are workload:metric. *)
let summary_json results =
  let key r n = match results with [ _ ] -> n | _ -> r.name ^ ":" ^ n in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all ok results));
      ("attempted", Json.Int (max 1 (sum (fun r -> r.attempted))));
      ("failed", Json.Int (sum (fun r -> r.failed)));
      ("metrics", metrics_json ~key results);
    ]

let report_json ~seed ~seconds ~traced results =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("traced", Json.Bool traced);
      ( "workloads",
        Json.Obj
          (List.map
             (fun r ->
               ( r.name,
                 Json.Obj
                   [
                     ("attempted", Json.Int r.attempted);
                     ("failed", Json.Int r.failed);
                     ("errors", Json.List (List.map (fun e -> Json.String e) r.errors));
                     ("metrics", metrics_json ~key:(fun _ n -> n) [ r ]);
                   ] ))
             results) );
    ]

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let print_result r =
  List.iter print_endline r.lines;
  Printf.printf "  attempted %d, failed %d\n" r.attempted r.failed;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) r.errors;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Smoke test (dune runtest)                                           *)
(* ------------------------------------------------------------------ *)

(* The catalog above must be exactly what BENCHMARK.json, at the root of
   the repository (the working directory), declares. *)
let check_benchmark_json () =
  let ic = open_in_bin "BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string text with
  | Error e -> [ "BENCHMARK.json: " ^ e ]
  | Ok doc ->
      let names key field =
        match Option.bind (Json.member key doc) Json.as_list with
        | None -> [ "missing " ^ key ]
        | Some l ->
            List.map
              (fun e ->
                String.concat "|"
                  (List.map
                     (fun f -> Option.value ~default:"?" (Option.bind (Json.member f e) Json.as_string))
                     field))
              l
      in
      let expect key field got want =
        if got = want then []
        else [ Printf.sprintf "BENCHMARK.json %s (%s) does not match the benchmark" key field ]
      in
      expect "workloads" "name" (names "workloads" [ "name" ]) (List.map fst workloads)
      @ expect "end_to_end" "name|unit|better"
          (names "end_to_end" [ "name"; "unit"; "better" ])
          (List.map (fun (n, u, b) -> String.concat "|" [ n; u; b ]) end_to_end)
      @ expect "per_layer" "name|unit|better"
          (names "per_layer" [ "name"; "unit"; "better" ])
          (List.map (fun (n, u, b) -> String.concat "|" [ n; u; b ]) per_layer)

let smoke () =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter (fail "%s") (check_benchmark_json ());
  let run = run_workload ~sim_scale:0.02 ~seed:7 in
  let healthy r =
    if not (ok r) then
      fail "%s: failed %d, %s" r.name r.failed (String.concat "; " r.errors)
  in
  (* the result line must parse back with exactly the catalog's metrics *)
  let parses r names =
    match Json.of_string (Json.to_string (summary_json [ r ])) with
    | Error e -> fail "%s: result line does not parse: %s" r.name e
    | Ok doc -> (
        match Json.member "metrics" doc with
        | Some (Json.Obj ms) when List.map fst ms = names -> ()
        | _ -> fail "%s: result line does not carry exactly the catalog's metrics" r.name)
  in
  List.iter
    (fun (name, _) ->
      let r = run ~traced:false ~seconds:0.3 name in
      healthy r;
      parses r (List.map (fun (n, _, _) -> n) end_to_end);
      List.iter
        (fun (n, v, _) -> if not (v > 0.) then fail "%s: %s = %g, expected > 0" name n v)
        r.metrics)
    workloads;
  List.iter
    (fun name ->
      let r = run ~traced:true ~seconds:0.6 name in
      healthy r;
      parses r (List.map (fun (n, _, _) -> n) per_layer);
      if String.starts_with ~prefix:"dom" name && r.trace = None then
        fail "%s: traced run made no trace" name)
    [ "sim-jack"; "dom-kv" ];
  (* the checker must catch a corrupted shadow entry *)
  let r = run ~traced:false ~seconds:0.3 ~corrupt:true "dom-churn" in
  if r.failed = 0 then fail "corrupted shadow entry went unnoticed";
  match !failures with
  | [] ->
      print_endline "e2e smoke: ok";
      exit 0
  | l ->
      List.iter (Printf.eprintf "e2e smoke: %s\n") (List.rev l);
      exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let selected = ref [] in
  let seed = ref 42 in
  let seconds = ref 25. in
  let traced = ref false in
  let trace_out = ref None in
  let json_out = ref None in
  let smoke_mode = ref false in
  let corrupt = ref false in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> selected := !selected @ [ w ]),
        "W run workload W (repeatable; default: all)" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload (default 25)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> traced := false
          | 1 -> traced := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 per-layer run (1) or end-to-end run (0, default)" );
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE write the trace-event JSON");
      ("--json", Arg.String (fun f -> json_out := Some f), "FILE write the full report");
      ("--smoke", Arg.Set smoke_mode, " short self-test of every path");
      ( "--corrupt-shadow",
        Arg.Set corrupt,
        " corrupt one shadow-table entry (the checks must fail)" );
    ]
  in
  let usage = "e2e.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke_mode then smoke ();
  let names = if !selected = [] then List.map fst workloads else !selected in
  List.iter
    (fun n ->
      if not (List.mem_assoc n workloads) then begin
        Printf.eprintf "unknown workload %s (known: %s)\n" n
          (String.concat ", " (List.map fst workloads));
        exit 2
      end)
    names;
  if not (!seconds > 0.) then begin
    prerr_endline "--seconds must be positive";
    exit 2
  end;
  let results =
    List.map
      (fun n ->
        let r =
          run_workload ~traced:!traced ~seed:!seed ~seconds:!seconds ~corrupt:!corrupt n
        in
        print_result r;
        r)
      names
  in
  (match !trace_out with
  | Some path -> (
      match List.find_map (fun r -> r.trace) results with
      | Some doc -> write_file path (Json.to_string doc)
      | None -> prerr_endline "no trace to write (traced dom-* runs write one)")
  | None -> ());
  Option.iter
    (fun path ->
      write_file path
        (Json.to_string (report_json ~seed:!seed ~seconds:!seconds ~traced:!traced results)))
    !json_out;
  print_endline (Json.to_string (summary_json results));
  exit (if List.for_all ok results then 0 else 1)
