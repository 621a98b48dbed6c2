(** Run a workload profile against a collector configuration and summarise
    the outcome.

    One call = one "benchmark run" of the paper: a fresh simulated heap, a
    collector daemon, [profile.threads] mutator threads running the
    {!Engine}.  Two execution substrates are available:

    - [Sim] (default): every thread is an effects-based cooperative
      process, deterministically scheduled from [seed].  The whole run is
      a pure function of its parameters — this is the substrate all the
      paper-reproduction figures and the digest guard run on.
    - [Domains]: every mutator and the collector daemon runs on its own
      OCaml domain; handshakes, card marks and gray publishes are real
      atomic operations, and allocation goes through per-mutator caches.
      Wall-clock time is real, schedules are not reproducible.  At
      quiescence the driver runs two full collections, so the reachability
      oracle and the heap checker can cross-validate the end state against
      a [Sim] run of the same parameters (see test_parallel.ml): each
      thread draws the identical rng stream on both substrates, so the
      end-of-run allocation totals match exactly and the live census
      agrees within promotion tolerance.

    Benchmark runs use coarse-grained mode (no micro-step yields) — races
    are the test suite's job; the simulator runs only need the
    work/page/card accounting. *)

val default_heap : Otfgc_heap.Heap.config
(** 1 MB initial, 4 MB maximum — the paper's 1→32 MB scaled by 8, matching
    the 512 KB default young generation (the paper's 4 MB / 8). *)

val run_rt :
  ?heap:Otfgc_heap.Heap.config ->
  ?seed:int ->
  ?scale:float ->
  ?substrate:Otfgc_sched.Substrate.kind ->
  ?threads:int ->
  ?gc_workers:int ->
  ?instrument:(Otfgc.Runtime.t -> unit) ->
  ?observer:Otfgc_metrics.Observer.t ->
  gc:Otfgc.Gc_config.t ->
  Profile.t ->
  Otfgc_metrics.Run_result.t * Otfgc.Runtime.t
(** Like {!run}, but also hands back the runtime so callers can read the
    event recorder, telemetry and histograms after the fact.  [instrument]
    runs right after the runtime is created — the place to arm the event
    recorder or enable the telemetry instruments (both off by default).
    The warmup reset clears telemetry along with the ledgers, and on the
    simulator the recorded events too, so what remains covers exactly the
    measured lap (domains keep the warm-up lap's events: only a ring's
    writer may touch it).  [threads] overrides the
    profile's thread count (the speedup sweeps vary it); [substrate]
    selects the execution substrate (default [Sim]); [gc_workers]
    (default 1) is the collection crew's width; more than 1 worker is
    domains substrate only ([Invalid_argument] on [Sim]).  [observer], domains
    only, is launched right after [instrument] and stopped at quiescence,
    so its final snapshot equals the post-run totals exactly (see
    {!Otfgc_metrics.Observer}).  A domains run ends by moving each
    mutator's own cost and telemetry ledgers into the shared ones
    (merged, then reset), so {!Otfgc_metrics.Metrics_snapshot.take} on
    the returned runtime equals the observer's final snapshot.  Note the warmup
    reset happens mid-run: observer counters are monotone only from the
    first post-warmup snapshot on. *)

val run :
  ?heap:Otfgc_heap.Heap.config ->
  ?seed:int ->
  ?scale:float ->
  ?substrate:Otfgc_sched.Substrate.kind ->
  ?threads:int ->
  ?gc_workers:int ->
  gc:Otfgc.Gc_config.t ->
  Profile.t ->
  Otfgc_metrics.Run_result.t
(** [run ~gc profile] executes the workload to completion and returns its
    summary.  [scale] (default 1.0) multiplies the allocation volume —
    experiments use it to shorten sweeps.  [seed] (default 42) fixes the
    scheduler and workload randomness; [heap] overrides the heap geometry
    (e.g. the card-size sweeps of Figures 21–23). *)

val run_pair :
  ?heap:Otfgc_heap.Heap.config ->
  ?seed:int ->
  ?scale:float ->
  gc:Otfgc.Gc_config.t ->
  Profile.t ->
  Otfgc_metrics.Run_result.t * Otfgc_metrics.Run_result.t
(** [(generational_or_other, non_generational_baseline)] under identical
    parameters — the comparison every figure reports.  The baseline uses
    {!Otfgc.Gc_config.non_generational} with the same trigger settings.
    Simulator substrate only (it feeds the pinned figures). *)
