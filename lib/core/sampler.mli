(** The one row store of sampled {!Metrics_snapshot.t}s, and the
    simulator's sampling cadence, carried by {!State.t}.

    Two clocks feed the store.  On the simulator, {!Observatory.maybe_sample}
    appends a row with its heap census each time {!Cost.elapsed_multi}
    crosses the next threshold of the interval armed by {!configure}
    (disabled, interval 0, by default).  On the domains substrate the
    observer domain ([Otfgc_metrics.Observer]) appends a row, without a
    census, at each wall-clock tick: it is then the store's only
    writer.  Sampling is out of band — taking a row charges no cost,
    touches no pages and never yields, so arming it cannot perturb a
    run (pinned by the digest-identity tests). *)

type t = {
  mutable every : int;  (** cost units between samples; [0] = off *)
  mutable next_at : int;
      (** elapsed-time threshold for the next sample (maintained by
          {!Observatory}) *)
  mutable rows : Metrics_snapshot.t list;  (** newest first *)
  mutable length : int;
}
(** Transparent like {!State.t}: the observatory reads the cadence
    fields on the sampling fast path.  Outside code should treat the
    record as read-only and go through the functions below. *)

val create : unit -> t
(** Disarmed, with no rows. *)

val configure : t -> every:int -> unit
(** Arm simulator sampling every [every] cost units ([0] disarms).
    Resets the cadence so the next check samples immediately. *)

val push : t -> Metrics_snapshot.t -> unit
(** Append one row; its [seq] should be {!length} before the push. *)

val rows : t -> Metrics_snapshot.t list
(** Every row, oldest first. *)

val last : t -> Metrics_snapshot.t option
val length : t -> int

val reset : t -> unit
(** Drop the rows and re-arm (the simulator's end-of-warm-up reset; on
    domains the rows are the observer's, and only it may touch them).
    Keeps the configured cadence. *)
