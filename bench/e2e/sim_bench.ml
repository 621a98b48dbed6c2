(* Simulator workloads: the paper's profiles on the deterministic effects
   scheduler.  [Driver] cannot reach [Sched.set_on_switch], so [simulate]
   repeats [Driver.run_sim] step for step with the hook armed;
   [driver_check] proves the copy exact by comparing [Run_result] JSON
   byte for byte with [Driver.run] / [Driver.run_pair].

   A pass repeats whole simulated runs (a "job": one run, or the pair)
   until its time is spent.  One operation is [op_allocs] simulated
   allocations: the hook reads the heap's allocation counter at every
   context switch and stamps the thread's CPU clock when it reaches the
   next multiple (a step allocates at most once) — one field read per
   switch, so the untraced pass runs at [Driver] speed.  Set-up, operations
   and the measured time are all thread CPU time ([Common.thread_cpu_ns]).
   The traced hook also stamps every switch, with the cheaper monotonic
   clock, and charges the slice to the process switched out, and a
   collector slice to its current [Cost] phase. *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Sched = Otfgc_sched.Sched
module Substrate = Otfgc_sched.Substrate
module Rng = Otfgc_support.Rng
module Json = Otfgc_support.Json
module Histogram = Otfgc_support.Histogram
module Run_result = Otfgc_metrics.Run_result
module Driver = Otfgc_workloads.Driver
module Engine = Otfgc_workloads.Engine
module Profile = Otfgc_workloads.Profile
open Common

type spec = { profile : Profile.t; gc : Gc_config.t; pair : bool }

let jack =
  { profile = Profile.jack; gc = Gc_config.aging ~oldest_age:2 (); pair = false }

(* [Driver.run_pair]: the generational run, then the non-generational
   baseline under the same triggers — the Figure 8 comparison. *)
let anagram = { profile = Profile.anagram; gc = Gc_config.default; pair = true }

(* The simulator stops for an out-of-band floating-garbage census at the
   end of every sweep, about once per 10^4 allocations on jack.  With
   one-allocation operations the 99.99th percentile sat on the edge of
   that population and swung between runs; with two it sits inside. *)
let op_allocs = 2

let configs spec =
  if spec.pair then
    [ spec.gc; { spec.gc with Gc_config.mode = Gc_config.Non_generational } ]
  else [ spec.gc ]

type acc = {
  traced : bool;
  ops : Samples.t;  (** host ns per operation, every job of the pass *)
  mutable job_setup_ns : int;
  mutable job_measured_ns : int;
  mutable repeats : repeat list;
  mutable measured_ns : int;
  mutable wall_ns : int;  (** measured wall time, which the traced slices cover *)
  mutable elapsed_units : int;
  mutable alloc_bytes : int;
  mutable capacity : int;
  phase_ns : int array;  (** traced: collector slices by [Cost.phase_index] *)
  mutable mutator_ns : int;
  mutable steps : int;
  mutable layers : (string * float) list list;
}

let new_acc ~traced =
  {
    traced;
    ops = Samples.create (1 lsl 20);
    job_setup_ns = 0;
    job_measured_ns = 0;
    repeats = [];
    measured_ns = 0;
    wall_ns = 0;
    elapsed_units = 0;
    alloc_bytes = 0;
    capacity = 0;
    phase_ns = Array.make (List.length Cost.phases) 0;
    mutator_ns = 0;
    steps = 0;
    layers = [];
  }

let simulate acc ~seed ~scale ~gc (profile : Profile.t) =
  let t_create = thread_cpu_ns () in
  Profile.validate profile;
  let rt = Runtime.create ~heap_config:Driver.default_heap ~gc_config:gc () in
  Runtime.set_fine_grained rt false;
  if acc.traced then Telemetry.set_enabled (Runtime.telemetry rt) true;
  let master = Rng.make seed in
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.split master)) () in
  ignore (Runtime.spawn_collector rt sched);
  let n = profile.Profile.threads in
  if n > 3 then (Runtime.state rt).State.collector_speed <- 8 * n / 3;
  let quota =
    Stdlib.max 1 (int_of_float (float_of_int profile.Profile.total_alloc *. scale))
  in
  let hp = Runtime.heap rt in
  let cost = Runtime.cost rt in
  let measuring = ref false in
  let t_warm = ref 0 in
  let wall_warm = ref 0 in
  let steps_warm = ref 0 in
  let next_op = ref max_int in
  let t_op = ref 0 in
  let t_switch = ref 0 in
  let prev_collector = ref false in
  Sched.set_on_switch sched
    (Some
       (fun name ->
         if acc.traced && !measuring then begin
           let t = now () in
           let d = t - !t_switch in
           (if !prev_collector then
              let i = Cost.phase_index (Cost.current_phase cost) in
              acc.phase_ns.(i) <- acc.phase_ns.(i) + d
            else acc.mutator_ns <- acc.mutator_ns + d);
           t_switch := t;
           prev_collector := String.equal name "collector"
         end;
         if Heap.total_allocated_objects hp >= !next_op then begin
           let t = thread_cpu_ns () in
           Samples.add acc.ops (t - !t_op);
           t_op := t;
           next_op := !next_op + op_allocs
         end));
  (* Driver.sync_point_for, simulator branch, plus [arm] at the end *)
  let prebuilt = Atomic.make 0 in
  let warm = Atomic.make false in
  let arm () =
    let t = thread_cpu_ns () in
    t_warm := t;
    t_op := t;
    wall_warm := now ();
    t_switch := !wall_warm;
    steps_warm := Sched.steps sched;
    next_op := op_allocs;
    measuring := true
  in
  let sync_point i m () =
    Atomic.incr prebuilt;
    if i = 0 then begin
      Substrate.wait_until (fun () ->
          Runtime.cooperate rt m;
          Atomic.get prebuilt = n);
      ignore (Runtime.collect_and_wait rt m ~full:true : Gc_stats.cycle);
      Gc_stats.reset (Runtime.stats rt);
      Cost.reset cost;
      Event_log.clear (Runtime.events rt);
      Telemetry.reset (Runtime.telemetry rt);
      Sampler.reset (Runtime.sampler rt);
      Heap.reset_allocation_stats hp;
      Atomic.set (Runtime.state rt).State.bytes_since_gc 0;
      Atomic.set warm true;
      arm ()
    end
    else
      Substrate.wait_until (fun () ->
          Runtime.cooperate rt m;
          Atomic.get warm)
  in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "%s-t%d" profile.Profile.name i in
    let m = Runtime.new_mutator rt ~name () in
    let rng = Rng.split master in
    ignore
      (Sched.spawn sched ~name (fun () ->
           Engine.run_thread rt m rng ~profile ~quota ~sync_point:(sync_point i m)
             ();
           Runtime.retire_mutator rt m))
  done;
  Sched.run sched;
  let t_end = thread_cpu_ns () in
  acc.wall_ns <- acc.wall_ns + (now () - !wall_warm);
  acc.job_setup_ns <- acc.job_setup_ns + (!t_warm - t_create);
  acc.job_measured_ns <- acc.job_measured_ns + (t_end - !t_warm);
  acc.measured_ns <- acc.measured_ns + (t_end - !t_warm);
  acc.steps <- acc.steps + (Sched.steps sched - !steps_warm);
  (Run_result.of_runtime ~workload:profile.Profile.name rt, rt)

let json_of r = Json.to_string (Run_result.to_json r)

let driver_check ~seed ~scale spec =
  let expected =
    if spec.pair then
      let a, b = Driver.run_pair ~seed ~scale ~gc:spec.gc spec.profile in
      [ a; b ]
    else [ Driver.run ~seed ~scale ~gc:spec.gc spec.profile ]
  in
  List.concat_map
    (fun traced ->
      let acc = new_acc ~traced in
      let got =
        List.map (fun gc -> fst (simulate acc ~seed ~scale ~gc spec.profile)) (configs spec)
      in
      if List.map json_of got = List.map json_of expected then []
      else
        [
          Printf.sprintf "driver equality: %s scaffold differs from Driver at seed %d"
            (if traced then "traced" else "untraced")
            seed;
        ])
    [ false; true ]

(* At the end of a run every mutator has retired.  Slots are not checked:
   garbage may point at objects reclaimed by the last sweep, which is
   legal until two full collections have run. *)
let end_checks rt =
  check "Heap.check" (Heap.check ~check_slots:false (Runtime.heap rt))
  @ check "Oracle.check_safety" (Oracle.check_safety (Runtime.state rt))

(* Counter-derived layers of one finished run (all ledgers were reset at
   the end of the warmup lap, so they cover the measured part). *)
let run_layers rt =
  let tel = Runtime.telemetry rt in
  let cycles = Gc_stats.cycles (Runtime.stats rt) in
  let handshakes =
    List.fold_left
      (fun a s -> a + Histogram.count (Telemetry.handshake_latency tel s))
      0 [ Status.Async; Status.Sync1; Status.Sync2 ]
  in
  let live = match List.rev cycles with [] -> 0 | c :: _ -> c.Gc_stats.live_bytes_at_end in
  (("collector.handshakes", float_of_int handshakes) :: cycle_layers cycles)
  @ cost_layers (cost_totals [ Runtime.cost rt ])
  @ counter_layers ~before:(counters []) (counters [ tel ])
  @ [
      ("heap.capacity_mb", float_of_int (Heap.capacity (Runtime.heap rt)) /. mb);
      ("heap.live_mb", float_of_int live /. mb);
    ]

let job acc ~seed ~scale spec =
  let from = Samples.count acc.ops in
  acc.job_setup_ns <- 0;
  acc.job_measured_ns <- 0;
  let errors =
    List.concat_map
      (fun gc ->
        let r, rt = simulate acc ~seed ~scale ~gc spec.profile in
        acc.elapsed_units <- acc.elapsed_units + r.Run_result.elapsed_multi;
        acc.alloc_bytes <- acc.alloc_bytes + r.Run_result.total_alloc_bytes;
        acc.capacity <- Stdlib.max acc.capacity r.Run_result.final_capacity;
        if acc.traced then acc.layers <- run_layers rt :: acc.layers;
        end_checks rt)
      (configs spec)
  in
  acc.repeats <-
    repeat acc.ops ~from ~setup:(s_of_ns acc.job_setup_ns) ~measured_ns:acc.job_measured_ns
    :: acc.repeats;
  errors

(* Jobs until the measured time is as close to [seconds] as whole jobs
   allow (the next job, as long as the last, would overshoot by more than
   the run now falls short), so a run never overshoots by more than half a
   job.  Per-layer numbers are per job. *)
let pass ~traced ~seed ~scale ~seconds spec =
  let acc = new_acc ~traced in
  let gc0 = Gc.quick_stat () in
  let jobs = ref 0 in
  let errors = ref [] in
  while !jobs = 0 || s_of_ns (acc.measured_ns + (acc.job_measured_ns / 2)) < seconds do
    errors := !errors @ job acc ~seed ~scale spec;
    incr jobs
  done;
  let gc1 = Gc.quick_stat () in
  let e2e =
    e2e_of_repeats acc.repeats ~ops:acc.ops
      ~heap_mb:(float_of_int acc.capacity /. mb)
      ~cost_units_per_kb:
        (float_of_int acc.elapsed_units /. (float_of_int acc.alloc_bytes /. 1024.))
  in
  let layers, notes =
    if not traced then ([], [])
    else
      let per_job x = x /. float_of_int !jobs in
      let ph p = per_job (s_of_ns acc.phase_ns.(Cost.phase_index p)) in
      let collector = per_job (s_of_ns (Array.fold_left ( + ) 0 acc.phase_ns)) in
      let mutator = per_job (s_of_ns acc.mutator_ns) in
      let wall = per_job (s_of_ns acc.wall_ns) in
      let other = wall -. collector -. mutator in
      let sums = merge_layers (host_layers ~before:gc0 gc1 :: acc.layers) in
      let layers =
        [
          ("sched.steps", per_job (float_of_int acc.steps));
          ("sched.ns_per_step", float_of_int acc.wall_ns /. float_of_int (max 1 acc.steps));
          ("sched.other_s", other);
          ("collector.host_s", collector);
          ("mutator.host_s", mutator);
          ("collector.busy_frac", (collector -. ph Cost.Idle) /. wall);
          ("collector.clear_s", ph Cost.Clear);
          ("collector.card_scan_s", ph Cost.Card_scan);
          ("collector.trace_s", ph Cost.Trace);
          ("collector.sweep_s", ph Cost.Sweep);
          ("collector.handshake_s", ph Cost.Handshake);
          ("collector.idle_s", ph Cost.Idle);
        ]
        @ List.map (fun (k, v) -> (k, if List.mem k gauges then v else per_job v)) sums
      in
      let note =
        Printf.sprintf
          "reconcile (per job): wall %.4f s = collector.host_s %.4f + mutator.host_s \
           %.4f + uncovered sched.other_s %.6f"
          wall collector mutator other
      in
      (layers, [ note ])
  in
  {
    attempted = !jobs;
    failed = (if !errors = [] then 0 else !jobs);
    errors = !errors;
    e2e;
    layers;
    notes;
    trace = None;
  }
