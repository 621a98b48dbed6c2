(** The on-the-fly collectors — the paper's Figures 1–6 as code.

    Three variants share this module, selected by {!Gc_config.mode}:

    - [Non_generational]: the DLG mark-sweep baseline with the black/white
      color toggle of Remark 5.1 (trace recolors live objects to the mark
      color; sweep reclaims the clear color; the two names swap at the end
      of each sweep).
    - [Generational]: Sections 3–5 / Figures 1–3.  Black objects form the
      old generation; a partial collection seeds its trace by graying the
      black objects on dirty cards; objects created during the cycle get
      the "yellow" allocation color, with the sync1/sync2 graying exception
      of Section 4; the allocation and clear colors toggle at cycle start.
    - [Generational_aging]: Section 6 / Figures 4–6.  A side age table, a
      tenuring threshold, always-on card marking, the 3-step card-clearing
      protocol that survives the mutator/collector card race of Section
      7.2, and a sweep that de-promotes (recolors and ages) young
      survivors.

    Mutator-facing routines ({!update}, {!cooperate}, {!allocation_color})
    must be called from the owning mutator's process; collector routines
    run in the collector process spawned by {!Runtime}.  Each phase body
    (card scan, trace, sweep) exists once and runs on the {!Gc_par}
    crew, whose worker 0 is the collector process: alone under the
    simulator and by default on domains, joined by helper domains when
    [Runtime.set_gc_workers] widens the crew.  Every shared-memory
    micro-step calls {!State.step}, so schedules explore the same
    interleavings the paper's fine-grained atomicity argument is
    about. *)

(** {2 Mutator routines (Figure 1 / Figure 4)} *)

val update : State.t -> Mutator.t -> x:int -> i:int -> y:int -> unit
(** The write barrier plus the store [heap\[x,i\] <- y].  [y] may be
    {!Otfgc_heap.Heap.nil}. *)

val cooperate : State.t -> Mutator.t -> unit
(** Handshake poll: adopt the collector's posted status, marking the
    mutator's own roots gray when leaving [Sync2]. *)

val allocation_color : State.t -> Otfgc_heap.Color.t
(** Color for a new object under the current mode and phase (the [Create]
    routine's color choice). *)

(** {2 The collector process} *)

val run_cycle : State.t -> full:bool -> Gc_stats.cycle
(** One complete collection cycle: clear, mark (handshakes + card scan +
    color toggle), trace, sweep, post-cycle growth.  Returns the completed
    statistics record (also appended to [state.stats]). *)

val census_stride : int
(** Blocks the per-cycle clear-colour census walks per heap-lock hold
    ({!Otfgc_heap.Heap.color_census}); on domains no census hold is
    longer than one stride. *)

val collector_loop : State.t -> unit
(** Body of the collector process, crew worker 0: wait for a trigger or
    shutdown, run cycles.  Spawn as a daemon process. *)

val gc_worker_loop : State.t -> int -> unit
(** Body of helper worker [wid] (1..n-1) of a crew widened by
    [Runtime.set_gc_workers] (domains substrate): park on the crew's
    epoch counter, run each opened phase's share (card scan / trace /
    sweep), check in at the phase barrier; exits at shutdown.  Worker 0
    is the {!collector_loop} process itself.  Spawn as a daemon domain. *)

(** {2 Exposed for tests} *)

val mark_gray : State.t -> tel:Telemetry.t -> sync:bool -> int -> bool
(** The [MarkGray] routine; [sync] is the caller's "my status is not
    async" flag (enables the yellow-graying exception in [Generational]
    mode); [tel] is the caller-context telemetry (the shared ledger under
    the simulator).  Returns whether the object was shaded.  No cost is
    charged — callers do. *)

val clear_cards : State.t -> Gc_stats.cycle -> unit
(** Worker 0's share of the card-scan phase (Figure 3, or Figure 6 under
    the aging modes), with its partial counters folded into the cycle
    record: at width 1 exactly what a partial cycle's card phase runs.
    Exposed so tests can drive races against it directly. *)
