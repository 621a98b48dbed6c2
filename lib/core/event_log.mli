(** What remains of the simulator's former shared event log: the
    benchmark's copy of [Driver.run_sim] still clears it at the warm-up
    barrier through [Runtime.events].  Events are recorded by
    {!Flight_recorder}.  ROADMAP item 2 deletes this module together with
    that copy. *)

type t = Flight_recorder.t

val clear : t -> unit
(** {!Flight_recorder.clear}. *)
