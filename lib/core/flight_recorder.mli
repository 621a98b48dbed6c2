(** The event recorder, shared by both substrates: bounded single-writer
    rings of collector protocol steps (cycle and phase spans, handshake
    post->complete spans, the colour toggle, promotions, heap growth)
    and per-mutator events (handshake acks, allocation stalls, sampled
    safepoint polls, block-pool lock waits), plus the crew helpers'
    steal and idle spans.  Drained after the run into the Perfetto
    trace, the [gcsim run --trace] timeline, the report's activity
    strips, the contention profile and the SLO report.

    Each ring has exactly one writer — the process or domain it belongs
    to — so recording is five plain array stores plus a clock read.  A
    full ring overwrites its oldest event and counts the loss.  The
    clock is fixed when the recorder is armed: simulated cost units
    ([Cost.elapsed_multi]) on the simulator, monotonic nanoseconds on
    domains.  Disarmed (the default), every record site reduces to a
    single option check.  Armed, recording never yields, never charges
    cost and never touches heap pages, so the simulator's schedule and
    results are the same either way.  See DESIGN.md §12. *)

type kind =
  | Phase
      (** collector phase span; [a] = phase (0 clear, 1 cards, 2 trace,
          3 sweep); on the collector track [b] = the phase's count: old
          objects grayed (cards), objects traced, objects freed (sweep) *)
  | Cycle
      (** whole collection cycle; [a] = [Gc_stats.kind_index], [b] = 1
          if a full collection was requested *)
  | Handshake  (** posted->complete span; [a] = [Status.index] *)
  | Ack  (** mutator adopted a posted status; [a] = [Status.index] *)
  | Poll  (** sampled safepoint poll; [a] = polls so far *)
  | Stall  (** allocation stall span; [a] = mutator id *)
  | Lock_wait  (** block-pool class lock wait; [a] = size class *)
  | Steal  (** steal attempt span; [a] = 1 hit / 0 miss *)
  | Idle  (** trace worker parked out of work; [a] = worker id *)
  | Colors_toggled  (** allocation/clear colours swapped *)
  | Promoted  (** cycle promoted objects; [a] = count *)
  | Heap_grown  (** post-cycle growth; [a] = new capacity in bytes *)

val kind_name : kind -> string

type ring
(** A single-writer bounded event ring, bound to one Perfetto track. *)

type event = {
  track : string;
  tid : int;
  kind : kind;
  a : int;
  b : int;
  t0_ns : int;  (** start, in the recorder's clock (ns or cost units) *)
  dur_ns : int;  (** 0 for instants *)
}

type t

val create : ?capacity:int -> unit -> t
(** Disarmed recorder; [capacity] is events per ring (default 16384). *)

val arm : ?units:Cost.t -> t -> unit
(** Idempotent.  Fixes the clock — [Cost.elapsed_multi units] when
    [units] is given (simulator), the monotonic ns clock otherwise —
    and creates the collector and handshake rings; from then on
    [new_ring] hands out per-process rings.  Call before any process
    that should record starts running. *)

val armed : t -> bool

val units : t -> bool
(** The clock reads simulated cost units rather than nanoseconds. *)

val ring_now : ring -> int
(** The clock of the recorder the ring belongs to. *)

val now_ns : unit -> int
(** The monotonic ns clock, whatever the recorder's. *)

(** {2 Track ids (Perfetto [tid] scheme)} *)

val collector_tid : int
val mutator_tid : int -> int
val worker_tid : int -> int
(** Helper GC worker [wid >= 1]; high band, disjoint from mutators. *)

val handshake_tid : int
(** Dedicated track: handshake spans straddle collector phase spans, so
    they cannot live on the collector track without breaking nesting. *)

val new_ring : t -> track:string -> tid:int -> ring option
(** Fresh ring for one process, or [None] while disarmed.  Registration
    takes a mutex; recording into the result never does. *)

val collector_ring : t -> ring option
val handshake_ring : t -> ring option

(** {2 Recording (single-writer per ring, wait-free)} *)

val span : ring -> ?b:int -> kind -> a:int -> t0:int -> t1:int -> unit
val instant : ring -> ?b:int -> kind -> a:int -> at:int -> unit

val poll_sample_interval : int
(** Every [poll_sample_interval]-th counted poll lands in the ring. *)

val poll : ring -> unit
(** Count a safepoint poll; every {!poll_sample_interval}-th also
    records a [Poll] instant (the only one that reads the clock). *)

val note_handshake_posted : t -> unit
(** Collector only: stamp the open handshake's posted time. *)

val note_handshake_completed : t -> status:int -> unit
(** Collector only: close the open handshake span on the handshake
    track; [status] is the posted [Status.index]. *)

val clear : t -> unit
(** Forget every recorded event and drop count (the simulator's warm-up
    reset).  Only while no other process or domain records: on domains
    each ring's writer is still running, so the driver never clears. *)

(** {2 Draining (post-run, writers quiescent)} *)

val events : t -> event list
(** Every surviving event from every ring, merged and stably sorted by
    start timestamp: the stream is monotone in [t0_ns], and events with
    equal timestamps come back ring by ring in registration order, each
    ring's in emission order.  A span is emitted when it ends, so a
    parent span comes after a child that starts with it. *)

val recent : t -> n:int -> event list
(** The last [n] events of each ring, ring by ring in registration
    order, each oldest first.  Unlike {!events} this may run while the
    writers are live (a hung run's diagnostic dump): an event being
    written concurrently can come back torn. *)

val length : t -> int
(** Events currently held, summed over all rings. *)

val dropped : t -> int
(** Events lost to ring overflow, summed over all rings. *)

val total_polls : t -> int

val tracks : t -> (string * int) list
(** Registered [(track name, tid)] pairs, sorted by tid. *)
