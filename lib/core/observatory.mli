(** The heap observatory: takes the {!Metrics_snapshot.t} rows that
    {!Sampler} stores.

    {!maybe_sample} is the hook planted on the simulator's busiest
    paths (allocation, application work, the write barrier, the
    collector's pacing tick); while the sampler is disarmed it costs
    two loads and a compare.  Once armed ({!Sampler.configure}), a row
    with its heap census is taken each time {!Cost.elapsed_multi}
    crosses the next cadence threshold, whichever side of the
    simulation gets there first.

    A row is strictly out of band: it only reads (counters, the block
    walk, side tables, the reachability {!Oracle}), charges no cost,
    touches no pages and never yields — so arming the sampler cannot
    change a run's schedule or results (digest-pinned). *)

val take : ?seq:int -> ?at_ms:float -> State.t -> Metrics_snapshot.t
(** One racy snapshot of the state, without a census (see
    {!Metrics_snapshot} for the safety argument): the observer's rows
    and every post-run summary. *)

val maybe_sample : State.t -> unit
(** Append a row with its census iff sampling is armed and the cadence
    interval has elapsed since the last row.  Simulator only: under the
    domains substrate the unsynchronised block walk would race mutator
    cache refills, so this is a no-op there; the observer domain takes
    that substrate's rows. *)

val sample_now : State.t -> unit
(** Append a row with its census unconditionally (the end-of-run row of
    [gcsim census] and [gcsim report]; works while disarmed).  Call it
    on a quiescent heap. *)
