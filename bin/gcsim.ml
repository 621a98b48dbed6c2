(* gcsim — command-line driver for the on-the-fly GC simulator.

   Subcommands:
     gcsim list                         available workloads and figures
     gcsim run -w anagram -m gen ...    run one workload, print its summary
     gcsim compare -w anagram ...       run generational vs baseline
     gcsim fig fig9 ...                 reproduce selected paper figures *)

open Cmdliner
module Heap = Otfgc_heap.Heap
module Gc_config = Otfgc.Gc_config
module Profile = Otfgc_workloads.Profile
module Driver = Otfgc_workloads.Driver
module Run_result = Otfgc_metrics.Run_result
module Lab = Otfgc_experiments.Lab
module Registry = Otfgc_experiments.Registry
module Textable = Otfgc_support.Textable
module Json = Otfgc_support.Json
module Metrics_snapshot = Otfgc_metrics.Metrics_snapshot
module Contention = Otfgc_metrics.Contention
module Trace_export = Otfgc_metrics.Trace_export
module Report = Otfgc_metrics.Report
module Timeseries = Otfgc_support.Timeseries
module Observer = Otfgc_metrics.Observer
module Openmetrics = Otfgc_metrics.Openmetrics

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let workload_arg =
  let doc =
    "Workload to run: mtrt, compress, db, jess, javac, jack, anagram, or \
     raytracer-N (N render threads)."
  in
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc)

let mode_arg =
  let doc =
    "Collector: gen (default), nongen, aging:N (tenure threshold N),      remset (generational with remembered sets), or adaptive (dynamic      tenuring)."
  in
  Arg.(value & opt string "gen" & info [ "m"; "mode" ] ~doc)

let card_arg =
  let doc = "Card size in bytes (power of two, 16..4096)." in
  Arg.(value & opt int 16 & info [ "card" ] ~doc)

let young_arg =
  let doc = "Young-generation trigger in KiB (paper 4 MB = 512 here)." in
  Arg.(value & opt int 512 & info [ "young" ] ~doc)

let scale_arg =
  let doc = "Allocation-volume scale factor." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc)

let seed_arg =
  let doc = "Random seed (scheduler and workload)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let substrate_arg =
  let doc =
    "Execution substrate: sim (default; deterministic cooperative \
     simulator) or domains (every mutator and the collector on its own \
     OCaml domain — real atomics, real wall clock, schedules not \
     reproducible)."
  in
  Arg.(value & opt string "sim" & info [ "substrate" ] ~doc)

let mutators_arg =
  let doc =
    "Override the workload's mutator thread count (e.g. for domain-count \
     sweeps)."
  in
  Arg.(value & opt (some int) None & info [ "mutators" ] ~docv:"N" ~doc)

let gc_workers_arg =
  let doc =
    "Collection crew width: the collector domain plus N-1 helper domains \
     share card scanning, tracing (work-stealing deques) and sweeping.  \
     Requires --substrate domains when > 1; 1 (default) is the collector \
     domain alone, the crew the simulator runs.  At most the recommended \
     domain count."
  in
  Arg.(value & opt int 1 & info [ "gc-workers" ] ~docv:"N" ~doc)

let parse_substrate = function
  | "sim" -> Ok Otfgc_sched.Substrate.Sim
  | "domains" -> Ok Otfgc_sched.Substrate.Domains
  | s -> Error (`Msg (Printf.sprintf "unknown substrate %S (sim|domains)" s))

let parse_workload name =
  match Profile.find name with
  | Some p -> Ok p
  | None -> (
      match String.index_opt name '-' with
      | Some i when String.sub name 0 i = "raytracer" -> (
          match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) with
          | Some n when n >= 1 -> Ok (Profile.raytracer ~threads:n)
          | _ -> Error (`Msg (Printf.sprintf "bad thread count in %S" name)))
      | _ -> Error (`Msg (Printf.sprintf "unknown workload %S (try: gcsim list)" name)))

let parse_mode ~young s =
  let young_bytes = young * 1024 in
  match s with
  | "gen" -> Ok (Gc_config.generational ~young_bytes:young_bytes ())
  | "nongen" ->
      Ok { Gc_config.non_generational with Gc_config.young_bytes }
  | "remset" ->
      Ok
        (Gc_config.generational ~young_bytes
           ~intergen:Gc_config.Remembered_set ())
  | "adaptive" -> Ok (Gc_config.adaptive ~young_bytes ())
  | s when String.length s > 6 && String.sub s 0 6 = "aging:" -> (
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some n when n >= 1 -> Ok (Gc_config.aging ~young_bytes ~oldest_age:n ())
      | _ -> Error (`Msg "aging threshold must be a positive integer"))
  | s ->
      Error
        (`Msg
          (Printf.sprintf "unknown mode %S (gen|nongen|aging:N|remset|adaptive)" s))

let ( let* ) = Result.bind

(* The end of every subcommand body: bad input is one line on stderr
   and exit status 1, never an uncaught exception. *)
let exit_code = function
  | Ok code -> code
  | Error (`Msg m) ->
      prerr_endline m;
      1

let require cond msg = if cond then Ok () else Error (`Msg msg)

let check_scale scale =
  require
    (Float.is_finite scale && scale > 0.)
    (Printf.sprintf "--scale must be a positive number, not %g" scale)

(* The workload, collector and heap every simulating subcommand takes,
   range-checked before anything is built from them. *)
let setup ~workload ~mode ~card ~young ~scale =
  let* profile = parse_workload workload in
  let* () =
    require
      (card >= 16 && card <= 4096 && card land (card - 1) = 0)
      (Printf.sprintf "--card must be a power of two in 16..4096, not %d" card)
  in
  let* () =
    require (young >= 1)
      (Printf.sprintf "--young must be at least 1 KiB, not %d" young)
  in
  let* () = check_scale scale in
  let* gc = parse_mode ~young mode in
  Ok (profile, gc, { Driver.default_heap with Heap.card_size = card })

let check_mutators = function
  | None -> Ok ()
  | Some n ->
      require (n >= 1) (Printf.sprintf "--mutators must be at least 1, not %d" n)

let check_gc_workers ~substrate n =
  let cores = Domain.recommended_domain_count () in
  let* () =
    require
      (n >= 1 && n <= cores)
      (Printf.sprintf
         "--gc-workers must be in 1..%d (the recommended domain count), not %d"
         cores n)
  in
  require
    (n = 1 || substrate = Otfgc_sched.Substrate.Domains)
    "--gc-workers > 1 requires --substrate domains"

let telemetry_arg =
  let doc =
    "Enable the latency instruments and print the telemetry report (work \
     attribution, event counters, histograms) after the summary."
  in
  Arg.(value & flag & info [ "telemetry" ] ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome/Perfetto trace-event JSON file of the run's timeline \
     (one track per mutator plus the collector); load it at \
     ui.perfetto.dev or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let sample_every_arg ~default =
  let doc =
    "Arm the heap observatory: take a census row (per-color occupancy, \
     generation sizes, freelist/card/gray state, floating garbage) every \
     $(docv) simulated cost units; 0 disarms.  Sampling is out of band — \
     it charges no cost and cannot change the run."
  in
  Arg.(value & opt int default & info [ "sample-every" ] ~docv:"UNITS" ~doc)

let parallel rt = (Otfgc.Runtime.state rt).Otfgc.State.parallel

(* Enable recording before any mutator starts; [Driver.run_rt] calls this
   right after creating the runtime.  A trace request arms the event
   recorder on either substrate; on domains a telemetry request arms it
   too, for the wall-clock contention profile. *)
let instrument_for ~trace ~telemetry ~trace_out ?(sample_every = 0) rt =
  if telemetry || trace_out <> None then
    Otfgc.Telemetry.set_enabled (Otfgc.Runtime.telemetry rt) true;
  if trace || trace_out <> None || (telemetry && parallel rt) then
    Otfgc.Runtime.arm_recorder rt;
  if sample_every > 0 then
    Otfgc.Sampler.configure (Otfgc.Runtime.sampler rt) ~every:sample_every

let warn_if_dropped rt =
  let d = Otfgc.Flight_recorder.dropped (Otfgc.Runtime.recorder rt) in
  if d > 0 then
    Printf.eprintf
      "warning: event recorder ring(s) overflowed — %d events overwritten \
       (oldest first); the trace, timeline and contention profile are \
       incomplete for the run's start\n"
      d

(* The contention profile: domains runs with the recorder armed. *)
let contention rt =
  let fr = Otfgc.Runtime.recorder rt in
  if parallel rt && Otfgc.Flight_recorder.armed fr then
    Some (Contention.of_flight fr)
  else None

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let write_trace rt ~workload path =
  let mode =
    Gc_config.mode_name (Otfgc.Runtime.state rt).Otfgc.State.cfg.Gc_config.mode
  in
  let doc =
    Trace_export.of_flight ~workload:(workload ^ " " ^ mode)
      (Otfgc.Runtime.recorder rt)
  in
  write_file path (Json.to_string doc);
  warn_if_dropped rt;
  Printf.printf "trace written to %s\n" path

(* The run summary: every report of a finished run projects this one
   end-of-run snapshot. *)
let summary rt = Metrics_snapshot.take (Otfgc.Runtime.state rt)

(* The JSON summary: the snapshot led by the run's identity and, when
   the flight recorder was armed, its contention profile. *)
let summary_json ~workload rt =
  let cfg = (Otfgc.Runtime.state rt).Otfgc.State.cfg in
  let contention =
    match contention rt with
    | Some c -> [ ("contention", Contention.to_json c) ]
    | None -> []
  in
  Metrics_snapshot.to_json
    ~run:
      (("workload", Json.String workload)
      :: ("mode", Json.String (Gc_config.mode_name cfg.Gc_config.mode))
      :: contention)
    (summary rt)

(* ------------------------------------------------------------------ *)
(* gcsim list                                                          *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "Workloads (synthetic models of the paper's benchmarks):";
    List.iter
      (fun p -> Printf.printf "  %-10s %s\n" p.Profile.name p.Profile.description)
      Profile.all;
    Printf.printf "  %-10s %s\n" "raytracer-N"
      (Profile.raytracer ~threads:2).Profile.description;
    print_newline ();
    print_endline "Figures (paper evaluation tables; see EXPERIMENTS.md):";
    List.iter
      (fun e -> Printf.printf "  %-6s %s\n" e.Registry.id e.Registry.title)
      Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and reproducible figures.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* gcsim run                                                           *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let trace_arg =
    let doc = "Print the collector's phase-event timeline after the run." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let metrics_every_arg =
    let doc =
      "Launch the observer domain: take a lock-free metrics snapshot every \
       $(docv) wall-clock milliseconds and export it as OpenMetrics text \
       plus JSONL (see --metrics-out).  0 (default) disarms.  Requires \
       --substrate domains."
    in
    Arg.(value & opt float 0. & info [ "metrics-every-ms" ] ~docv:"MS" ~doc)
  in
  let metrics_out_arg =
    let doc =
      "Base path for the observer's sinks: $(docv).om (OpenMetrics text \
       exposition, rewritten whole at each snapshot) and $(docv).jsonl \
       (one snapshot object per line)."
    in
    Arg.(value & opt string "metrics" & info [ "metrics-out" ] ~docv:"BASE" ~doc)
  in
  let live_arg =
    let doc =
      "Refresh a two-line ANSI view per snapshot (heap-occupancy ribbon, \
       collector phase, allocation rate, young size, dirty cards, gray \
       depth, cycles, p99 handshake).  Implies a 200 ms cadence when \
       --metrics-every-ms is unset, and arms the latency instruments so \
       the p99 is populated.  Requires --substrate domains."
    in
    Arg.(value & flag & info [ "live" ] ~doc)
  in
  let run workload mode card young scale seed substrate mutators gc_workers
      trace telemetry trace_out sample_every metrics_every_ms metrics_out live
      =
    exit_code
    @@
    let* profile, gc, heap = setup ~workload ~mode ~card ~young ~scale in
    let* substrate = parse_substrate substrate in
    let* () = check_mutators mutators in
    let* () = check_gc_workers ~substrate gc_workers in
    let* () =
      require
        ((metrics_every_ms <= 0. && not live)
        || substrate = Otfgc_sched.Substrate.Domains)
        "--metrics-every-ms / --live require --substrate domains"
    in
    let observer =
      if metrics_every_ms > 0. || live then
        Some
          (Observer.create
             {
               Observer.every_ms =
                 (if metrics_every_ms > 0. then metrics_every_ms else 200.);
               om_path = Some (metrics_out ^ ".om");
               jsonl_path = Some (metrics_out ^ ".jsonl");
               live;
               labels =
                 [
                   ("workload", workload);
                   ("mode", mode);
                   ("substrate", "domains");
                   ("seed", string_of_int seed);
                 ];
             })
      else None
    in
    let t0 = Unix.gettimeofday () in
    let r, rt =
      Driver.run_rt ~heap ~seed ~scale ~substrate ?threads:mutators ~gc_workers
        ~instrument:
          (instrument_for ~trace ~telemetry:(telemetry || live) ~trace_out
             ~sample_every)
        ?observer ~gc profile
    in
    (match observer with
    | Some o ->
        Printf.printf "metrics: %d snapshot(s) -> %s.om (OpenMetrics), %s.jsonl\n"
          (List.length (Observer.snapshots o))
          metrics_out metrics_out
    | None -> ());
    if substrate = Otfgc_sched.Substrate.Domains then
      Printf.printf
        "domains substrate: %.2f s wall, %d mutator domain(s) + %d collector \
         worker(s)\n"
        (Unix.gettimeofday () -. t0)
        (Option.value mutators ~default:profile.Profile.threads)
        gc_workers;
    Format.printf "%a@." Run_result.pp r;
    if telemetry then begin
      print_newline ();
      Metrics_snapshot.print (summary rt);
      Option.iter Contention.print (contention rt)
    end;
    if trace then
      Format.printf "@.event timeline (%s):@.%a@?"
        (if parallel rt then "ns" else "elapsed work units")
        Trace_export.pp_timeline (Otfgc.Runtime.recorder rt);
    if sample_every > 0 then
      Printf.printf
        "observatory: %d census rows sampled (export with 'gcsim census' or \
         render with 'gcsim report')\n"
        (Timeseries.length (Otfgc.Sampler.series (Otfgc.Runtime.sampler rt)));
    Option.iter (write_trace rt ~workload:profile.Profile.name) trace_out;
    Ok 0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one collector and print its summary.")
    Term.(
      const run $ workload_arg $ mode_arg $ card_arg $ young_arg $ scale_arg
      $ seed_arg $ substrate_arg $ mutators_arg $ gc_workers_arg $ trace_arg
      $ telemetry_arg $ trace_out_arg
      $ sample_every_arg ~default:0
      $ metrics_every_arg $ metrics_out_arg $ live_arg)

(* ------------------------------------------------------------------ *)
(* gcsim compare                                                       *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let run workload mode card young scale seed telemetry trace_out =
    exit_code
    @@
    let* profile, gc, heap = setup ~workload ~mode ~card ~young ~scale in
    let instrument = instrument_for ~trace:false ~telemetry ~trace_out in
    let cand, cand_rt =
      Driver.run_rt ~heap ~seed ~scale ~instrument ~gc profile
    in
    let base, base_rt =
      Driver.run_rt ~heap ~seed ~scale ~instrument
        ~gc:{ gc with Gc_config.mode = Gc_config.Non_generational }
        profile
    in
    let report title (r : Run_result.t) rt =
      Format.printf "--- %s ---@.%a@.@." title Run_result.pp r;
      if telemetry then begin
        Metrics_snapshot.print (summary rt);
        print_newline ()
      end
    in
    report cand.Run_result.mode cand cand_rt;
    report ("baseline (" ^ base.Run_result.mode ^ ")") base base_rt;
    Format.printf "improvement: %.1f%% (multiprocessor), %.1f%% (uniprocessor)@."
      (Run_result.improvement_pct ~baseline:base cand ~multiprocessor:true)
      (Run_result.improvement_pct ~baseline:base cand ~multiprocessor:false);
    (* the candidate's trace; the baseline run is for the numbers *)
    Option.iter (write_trace cand_rt ~workload:profile.Profile.name) trace_out;
    Ok 0
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run a workload under the chosen collector and the non-generational \
          baseline; print both summaries and the improvement.")
    Term.(
      const run $ workload_arg $ mode_arg $ card_arg $ young_arg $ scale_arg
      $ seed_arg $ telemetry_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* gcsim stats                                                         *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let format_arg =
    let doc = "Output format: text (tables), json, or csv." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("csv", `Csv) ]) `Text
      & info [ "format" ] ~doc)
  in
  let run workload mode card young scale seed substrate mutators gc_workers
      format =
    exit_code
    @@
    let* profile, gc, heap = setup ~workload ~mode ~card ~young ~scale in
    let* substrate = parse_substrate substrate in
    let* () = check_mutators mutators in
    let* () = check_gc_workers ~substrate gc_workers in
    let _, rt =
      Driver.run_rt ~heap ~seed ~scale ~substrate ?threads:mutators ~gc_workers
        ~instrument:(fun rt ->
          (* the event recorder too, so the events-logged/dropped
             counters report its real load; under domains it also feeds
             the contention profile *)
          Otfgc.Telemetry.set_enabled (Otfgc.Runtime.telemetry rt) true;
          Otfgc.Runtime.arm_recorder rt)
        ~gc profile
    in
    let workload = profile.Profile.name in
    (match format with
    | `Text ->
        Metrics_snapshot.print (summary rt);
        Option.iter Contention.print (contention rt)
    | `Json -> print_endline (Json.to_string (summary_json ~workload rt))
    | `Csv ->
        print_string (Metrics_snapshot.csv_of_json (summary_json ~workload rt)));
    warn_if_dropped rt;
    Ok 0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run one workload with telemetry enabled and print the phase-level \
          work attribution, event counters, latency histograms and the SLO \
          table (wall-clock under --substrate domains, where the flight \
          recorder also adds a contention profile).")
    Term.(
      const run $ workload_arg $ mode_arg $ card_arg $ young_arg $ scale_arg
      $ seed_arg $ substrate_arg $ mutators_arg $ gc_workers_arg $ format_arg)

(* ------------------------------------------------------------------ *)
(* gcsim validate-trace                                                *)
(* ------------------------------------------------------------------ *)

let validate_trace_cmd =
  let file_arg =
    let doc = "Trace-event JSON file to validate." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match Json.of_string contents with
    | Error e ->
        Printf.eprintf "%s: JSON parse error: %s\n" file e;
        1
    | Ok doc -> (
        match Trace_export.validate doc with
        | Error e ->
            Printf.eprintf "%s: invalid trace: %s\n" file e;
            1
        | Ok () ->
            Printf.printf "%s: valid trace\n" file;
            0)
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:
         "Check that a file written by --trace-out is well-formed \
          trace-event JSON (used by CI).")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* gcsim census                                                        *)
(* ------------------------------------------------------------------ *)

let out_arg ~what =
  let doc = Printf.sprintf "Write the %s to $(docv) instead of stdout." what in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let census_cmd =
  let format_arg =
    let doc = "Output format: csv (one line per sample) or json (columnar)." in
    Arg.(
      value
      & opt (enum [ ("csv", `Csv); ("json", `Json) ]) `Csv
      & info [ "format" ] ~doc)
  in
  let run workload mode card young scale seed sample_every format out =
    exit_code
    @@
    let* profile, gc, heap = setup ~workload ~mode ~card ~young ~scale in
    let* () =
      require (sample_every > 0) "--sample-every must be positive for a census"
    in
    let _, rt =
      Driver.run_rt ~heap ~seed ~scale
        ~instrument:
          (instrument_for ~trace:false ~telemetry:false ~trace_out:None
             ~sample_every)
        ~gc profile
    in
    (* close the series with the end-of-run heap state *)
    Otfgc.Observatory.sample_now (Otfgc.Runtime.state rt);
    let series = Otfgc.Sampler.series (Otfgc.Runtime.sampler rt) in
    let contents =
      match format with
      | `Csv -> Timeseries.to_csv series
      | `Json -> Json.to_string (Timeseries.to_json series) ^ "\n"
    in
    (match out with
    | None -> print_string contents
    | Some path ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "census written to %s (%d samples)\n" path
          (Timeseries.length series));
    Ok 0
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:
         "Run one workload with the heap observatory armed and dump the \
          census time series (per-color occupancy, generation sizes, \
          freelist/card/gray state, floating garbage) as CSV or JSON.")
    Term.(
      const run $ workload_arg $ mode_arg $ card_arg $ young_arg $ scale_arg
      $ seed_arg
      $ sample_every_arg ~default:20_000
      $ format_arg
      $ out_arg ~what:"census series")

(* ------------------------------------------------------------------ *)
(* gcsim report                                                        *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let out_arg =
    let doc = "Write the HTML report to $(docv)." in
    Arg.(
      value & opt string "report.html" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run workload mode card young scale seed sample_every out =
    exit_code
    @@
    let* profile, gc, heap = setup ~workload ~mode ~card ~young ~scale in
    let* () =
      require (sample_every > 0) "--sample-every must be positive for a report"
    in
    let _, rt =
      Driver.run_rt ~heap ~seed ~scale
        ~instrument:
          (instrument_for ~trace:true ~telemetry:true ~trace_out:None
             ~sample_every)
        ~gc profile
    in
    Otfgc.Observatory.sample_now (Otfgc.Runtime.state rt);
    let* html =
      Result.map_error
        (fun e -> `Msg e)
        (Report.of_runtime ~workload:profile.Profile.name rt)
    in
    write_file out html;
    warn_if_dropped rt;
    Printf.printf "report written to %s (%d samples)\n" out
      (Timeseries.length (Otfgc.Sampler.series (Otfgc.Runtime.sampler rt)));
    Ok 0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run one workload with the observatory and event recorder armed and \
          render a self-contained HTML/SVG report: occupancy ribbons per \
          color, cycle/handshake/stall strips, promotion-rate line (the \
          paper's Figure 7-9 presentation, over simulated time).")
    Term.(
      const run $ workload_arg $ mode_arg $ card_arg $ young_arg $ scale_arg
      $ seed_arg
      $ sample_every_arg ~default:20_000
      $ out_arg)

(* ------------------------------------------------------------------ *)
(* gcsim validate-report                                               *)
(* ------------------------------------------------------------------ *)

let validate_report_cmd =
  let file_arg =
    let doc = "HTML report file to validate." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match Report.validate contents with
    | Error e ->
        Printf.eprintf "%s: invalid report: %s\n" file e;
        1
    | Ok () ->
        Printf.printf "%s: valid report\n" file;
        0
  in
  Cmd.v
    (Cmd.info "validate-report"
       ~doc:
         "Check that a file written by 'gcsim report' is a well-formed \
          self-contained HTML/SVG report (used by CI).")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* gcsim validate-metrics                                              *)
(* ------------------------------------------------------------------ *)

let validate_metrics_cmd =
  let file_arg =
    let doc = "OpenMetrics text file to validate (the --metrics-out .om)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match Openmetrics.validate contents with
    | Error e ->
        Printf.eprintf "%s: invalid OpenMetrics exposition: %s\n" file e;
        1
    | Ok () ->
        Printf.printf "%s: valid OpenMetrics exposition\n" file;
        0
  in
  Cmd.v
    (Cmd.info "validate-metrics"
       ~doc:
         "Check that a file written by --metrics-out is a well-formed \
          OpenMetrics text exposition (used by CI).")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* gcsim fig                                                           *)
(* ------------------------------------------------------------------ *)

let fig_cmd =
  let ids_arg =
    let doc = "Figure ids (fig7..fig23); none = all." in
    Arg.(value & pos_all string [] & info [] ~docv:"FIG" ~doc)
  in
  let jobs_arg =
    let doc =
      "Simulation parallelism: fan independent runs out across N domains \
       (default: $(b,OTFGC_JOBS) or the recommended domain count; 1 = \
       sequential).  Results are identical for every N."
    in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~doc)
  in
  let no_cache_arg =
    let doc = "Do not read or write the persistent _cache/ directory." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let json_arg =
    let doc =
      "Also emit the figure tables as a JSON array, to $(docv) ('-' = \
       stdout instead of the rendered tables)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run ids scale seed jobs no_cache json_out =
    exit_code
    @@
    let* () = check_scale scale in
    let entries =
      if ids = [] then Registry.all
      else
        List.filter_map
          (fun id ->
            match Registry.find id with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown figure id %s\n" id;
                None)
          ids
    in
    let jobs = if jobs >= 1 then Some jobs else None in
    let cache_dir = if no_cache then None else Some "_cache" in
    let lab = Lab.create ~scale ~seed ?jobs ~cache_dir () in
    (* Submit every selected figure's grid as one batch, then render. *)
    Lab.prefetch lab (List.concat_map (fun e -> e.Registry.configs) entries);
    let tables = List.map (fun e -> (e, e.Registry.run lab)) entries in
    (match json_out with
    | Some "-" ->
        print_endline
          (Json.to_string
             (Json.List (List.map (fun (_, t) -> Textable.to_json t) tables)))
    | out ->
        List.iter (fun (_, t) -> Textable.print t) tables;
        Option.iter
          (fun path ->
            write_file path
              (Json.to_string
                 (Json.List
                    (List.map (fun (_, t) -> Textable.to_json t) tables))))
          out);
    let c = Lab.counters lab in
    Printf.eprintf "cache: %d runs simulated, %d disk hits\n" c.Lab.computed
      c.Lab.disk_hits;
    Ok 0
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Reproduce paper figures (see EXPERIMENTS.md).")
    Term.(
      const run $ ids_arg $ scale_arg $ seed_arg $ jobs_arg $ no_cache_arg
      $ json_arg)

let () =
  let doc =
    "Simulator for 'A Generational On-the-fly Garbage Collector for Java' \
     (Domani, Kolodner, Petrank; PLDI 2000)."
  in
  let info = Cmd.info "gcsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            compare_cmd;
            stats_cmd;
            census_cmd;
            report_cmd;
            fig_cmd;
            validate_trace_cmd;
            validate_report_cmd;
            validate_metrics_cmd;
          ]))
