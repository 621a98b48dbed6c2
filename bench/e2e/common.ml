(* Pieces shared by the simulator and domains workloads: the clock, the
   outcome of one measured pass, and the per-layer numbers both substrates
   read from counters the program already keeps. *)

open Otfgc

(* CLOCK_MONOTONIC in ns.  [Otfgc_support.Monotonic_clock] is
   gettimeofday, whose microsecond steps are too coarse for request
   medians of a few microseconds.  Unboxed and allocation-free. *)
let now () = Int64.to_int (Monotonic_clock.now ())

(* CPU time of the calling thread in ns.  The simulator runs on one
   thread, so this is its own cost without the 1-5 ms gaps in which the
   host runs something else; on a shared host those gaps, not the
   simulator, set the wall-clock 99.99th percentile.  A system call, about
   0.2 us. *)
external thread_cpu_ns : unit -> int = "e2e_thread_cpu_ns" [@@noalloc]

(* Pin the calling thread to the [k]-th CPU the process may use, if it may
   use two or more.  Two busy domains left to the host scheduler sometimes
   share one CPU for the better part of a second; pinned, each has its
   own. *)
external pin_to_cpu : int -> bool = "e2e_pin_to_cpu"

let s_of_ns ns = float_of_int ns /. 1e9
let mb = 1024. *. 1024.

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** failed checks, each one line *)
  e2e : (string * float) list;
  layers : (string * float) list;  (** absent per-layer metrics read 0 *)
  notes : string list;  (** reconciliation lines of a traced pass *)
  trace : Otfgc_support.Json.t option;  (** trace-event document *)
}

(* A run repeats its unit of measurement — a simulated job, a domains
   round — each with its own set-up.  Set-up time, rate, p50 and p99 are
   the median over the repeats of the repeat's own value, so a burst of
   host noise moves one repeat, not the result.  A repeat holds too few
   operations for a steady 99.99th percentile, so that one is taken over
   every operation of the run. *)
type repeat = { setup : float; rate : float; p50 : float; p99 : float }

let us_of_ns ns = float_of_int ns /. 1e3

(* The repeat whose operations are those of [ops] from index [from] on. *)
let repeat ops ~from ~setup ~measured_ns =
  let s = Samples.sorted ~from ops in
  let us p = us_of_ns (Samples.percentile s p) in
  {
    setup;
    rate = float_of_int (Array.length s) /. s_of_ns measured_ns;
    p50 = us 0.5;
    p99 = us 0.99;
  }

let e2e_of_repeats reps ~ops ~heap_mb ~cost_units_per_kb =
  let med f = Samples.median_float (List.map f reps) in
  [
    ("setup_s", med (fun r -> r.setup));
    ("ops_per_s", med (fun r -> r.rate));
    ("op_p50_us", med (fun r -> r.p50));
    ("op_p99_us", med (fun r -> r.p99));
    ("op_p9999_us", us_of_ns (Samples.percentile (Samples.sorted ops) 0.9999));
    ("heap_mb", heap_mb);
    ("cost_units_per_kb", cost_units_per_kb);
  ]

let check label = function
  | Ok () -> []
  | Error msg -> [ label ^ ": " ^ msg ]

(* Collector work counts over the cycles of a measured window. *)
let cycle_layers cycles =
  let sum f = float_of_int (List.fold_left (fun a c -> a + f c) 0 cycles) in
  let count k =
    float_of_int
      (List.length (List.filter (fun c -> List.mem c.Gc_stats.kind k) cycles))
  in
  [
    ("collector.cycles_partial", count [ Gc_stats.Partial ]);
    ("collector.cycles_full", count [ Gc_stats.Full; Gc_stats.Non_gen ]);
    ("collector.objects_traced", sum (fun c -> c.Gc_stats.objects_traced));
    ("collector.dirty_cards", sum (fun c -> c.Gc_stats.dirty_cards));
    ("collector.card_scan_kb", sum (fun c -> c.Gc_stats.card_scan_bytes) /. 1024.);
    ("collector.freed_mb", sum (fun c -> c.Gc_stats.bytes_freed) /. mb);
    ("collector.promotions", sum (fun c -> c.Gc_stats.promotions));
    ("collector.pages_touched", sum (fun c -> c.Gc_stats.pages_touched));
  ]

(* The cost model's work in millions of units, by collector phase plus the
   mutator and stall totals. *)
type cost_totals = { phase : int array; mutator : int; stall : int }

let cost_totals (cs : Cost.t list) =
  let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
  {
    phase =
      Array.of_list
        (List.map (fun p -> sum (fun c -> Cost.phase_work c p)) Cost.phases);
    mutator = sum Cost.mutator_work;
    stall = sum Cost.stall_work;
  }

let cost_diff a b =
  {
    phase = Array.map2 ( - ) a.phase b.phase;
    mutator = a.mutator - b.mutator;
    stall = a.stall - b.stall;
  }

let cost_elapsed c = Array.fold_left ( + ) 0 c.phase + c.mutator + c.stall

let cost_layers c =
  let mu n = float_of_int n /. 1e6 in
  let ph p = mu c.phase.(Cost.phase_index p) in
  [
    ("cost.handshake", ph Cost.Handshake);
    ("cost.card_scan", ph Cost.Card_scan);
    ("cost.trace", ph Cost.Trace);
    ("cost.sweep", ph Cost.Sweep);
    ("cost.mutator", mu c.mutator);
    ("cost.stall", mu c.stall);
  ]

(* Telemetry counters, summed over the ledgers a substrate keeps. *)
type counters = {
  updates : int;
  card_marks : int;
  yellow : int;
  stalls : int;
  lock_waits : int;
}

let counters (ts : Telemetry.t list) =
  let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
  {
    updates = sum Telemetry.barrier_updates;
    card_marks = sum Telemetry.card_marks;
    yellow = sum Telemetry.yellow_fires;
    stalls = sum Telemetry.stalls;
    lock_waits = sum Telemetry.lock_waits_total;
  }

let counter_layers ~before:b a =
  let d f = float_of_int (f a - f b) in
  [
    ("barrier.updates", d (fun c -> c.updates));
    ("barrier.card_marks", d (fun c -> c.card_marks));
    ("barrier.yellow_fires", d (fun c -> c.yellow));
    ("runtime.stalls", d (fun c -> c.stalls));
    ("runtime.lock_waits", d (fun c -> c.lock_waits));
  ]

(* The host OCaml runtime: OCaml 5 minor collections stop every domain, so
   they land in the client's tail latency. *)
let host_layers ~(before : Gc.stat) (after : Gc.stat) =
  [
    ( "host.minor_gcs",
      float_of_int (after.Gc.minor_collections - before.Gc.minor_collections) );
    ("host.minor_mwords", (after.Gc.minor_words -. before.Gc.minor_words) /. 1e6);
    ( "host.major_gcs",
      float_of_int (after.Gc.major_collections - before.Gc.major_collections) );
    ( "host.top_heap_mb",
      float_of_int (after.Gc.top_heap_words * (Sys.word_size / 8)) /. mb );
  ]

(* Per-layer metrics that are levels, not amounts of work. *)
let gauges = [ "heap.capacity_mb"; "heap.live_mb"; "host.top_heap_mb" ]

(* Sum same-named entries of several per-layer lists; gauges take the
   maximum instead. *)
let merge_layers lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k
           (match Hashtbl.find_opt tbl k with
           | None -> v
           | Some v0 -> if List.mem k gauges then Float.max v0 v else v0 +. v)))
    lists;
  List.of_seq (Hashtbl.to_seq tbl)
