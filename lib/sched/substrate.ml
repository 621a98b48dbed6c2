type kind = Sim | Domains

let key = Domain.DLS.new_key (fun () -> Sim)
let current () = Domain.DLS.get key
let set_current k = Domain.DLS.set key k

(* Jitter state is domain-local: (lcg state ref, prob scaled to 2^20,
   max_spin).  A tiny LCG rather than Rng keeps this module free of spawn
   plumbing — stress tests only need "random-ish", not "reproducible
   across substrates". *)
let jitter_key :
    ((int ref * int * int) option * (int * float * int) option) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (None, None))

let set_jitter ~seed ~prob ~max_spin =
  let p = int_of_float (prob *. 1048576.) in
  Domain.DLS.set jitter_key
    (Some (ref (seed lor 1), p, Stdlib.max 1 max_spin), Some (seed, prob, max_spin))

let clear_jitter () = Domain.DLS.set jitter_key (None, None)
let jitter_config () = snd (Domain.DLS.get jitter_key)

let lcg_next st =
  st := ((!st * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  (!st lsr 20) land 0xFFFFF

let maybe_jitter () =
  match fst (Domain.DLS.get jitter_key) with
  | None -> ()
  | Some (st, p, max_spin) ->
      if lcg_next st < p then begin
        let n = 1 + (lcg_next st mod max_spin) in
        for _ = 1 to n do
          Domain.cpu_relax ()
        done
      end

let yield () =
  match current () with Sim -> Sched.yield () | Domains -> maybe_jitter ()

let yield_n n =
  match current () with
  | Sim -> Sched.yield_n n
  | Domains ->
      for _ = 1 to n do
        maybe_jitter ()
      done

(* Spin briefly, then back off to short sleeps.  The spin budget is small
   on purpose: CI runners and the dev container have few cores, so a
   waiting domain that hogs its core starves the very domain it is
   waiting on. *)
let spin_budget = 200

let wait_until p =
  match current () with
  | Sim -> Sched.wait_until p
  | Domains ->
      let spins = ref 0 in
      while not (p ()) do
        if !spins < spin_budget then begin
          incr spins;
          Domain.cpu_relax ()
        end
        else Unix.sleepf 1e-4
      done

module type S = sig
  type t

  val spawn : t -> ?daemon:bool -> name:string -> (unit -> unit) -> unit
  val run : t -> unit
end

module Cooperative : S with type t = Sched.t = struct
  type t = Sched.t

  let spawn t ?daemon ~name fn = ignore (Sched.spawn t ?daemon ~name fn : Sched.pid)
  let run t = Sched.run t
end
