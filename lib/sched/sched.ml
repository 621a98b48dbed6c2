open Effect
open Effect.Deep

type _ Effect.t += Switch : unit Effect.t

type state =
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) continuation
  | Running
  | Finished

(* A suspended process may owe the scheduler no-op steps before it is
   resumed: [nap] picks still to sleep through (set by [yield_n]), then
   [wait] to hold (set by [wait_until]; [ready] when not parked). *)
type proc = {
  name : string;
  daemon : bool;
  mutable state : state;
  mutable nap : int;
  mutable wait : unit -> bool;
}

type pid = int

type policy = Round_robin | Random of Otfgc_support.Rng.t

let round_robin = Round_robin
let random_policy rng = Random rng

exception Stalled of string

(* Processes are named by their index in [procs] ([none] for no process),
   so the per-step bookkeeping below stores ints, not pointers: a no-op
   step then runs no write barrier. *)
let none = -1

type t = {
  policy : policy;
  quantum : int;
  mutable procs : proc array;
  mutable nprocs : int;
  mutable live : int;  (** unfinished non-daemon processes *)
  mutable unfinished : int;  (** processes not [Finished], daemons too *)
  mutable current : pid;  (** the process taking the current step *)
  mutable polling : bool;  (** a [wait_until] predicate is being evaluated *)
  mutable rr_cursor : int;
  mutable step_count : int;
  mutable drawn : int;
      (** [Random]: the raw draw of the next pick, made one step early *)
  mutable max_steps : int;  (** of the current [run] *)
  mutable burst : int;  (** steps left to [burst_pid] in its quantum *)
  mutable burst_pid : pid;
  mutable next : pid;  (** picked by a yielding process, for [run] to resume *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
      (** raised during a yielding process's steps, for [run] to re-raise *)
  mutable on_switch : (string -> unit) option;
}

let ready () = true

let placeholder =
  { name = ""; daemon = true; state = Finished; nap = 0; wait = ready }

(* The scheduler running a process is recorded here so that [yield] (which
   has no scheduler argument by design — barrier code deep inside the heap
   must not thread it through) can find the current process.  Schedulers
   never nest within a domain, but the experiment harness runs one
   simulation per domain in parallel, so the slot is domain-local. *)
let active : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let active () = Domain.DLS.get active

let create ?(policy = Round_robin) ?(quantum = 1) () =
  if quantum < 1 then invalid_arg "Sched.create: quantum must be >= 1";
  {
    policy;
    quantum;
    procs = Array.make 8 placeholder;
    nprocs = 0;
    live = 0;
    unfinished = 0;
    current = none;
    polling = false;
    rr_cursor = 0;
    step_count = 0;
    drawn =
      (match policy with
      | Random rng -> Otfgc_support.Rng.raw rng
      | Round_robin -> 0);
    max_steps = max_int;
    burst = 0;
    burst_pid = none;
    next = none;
    failure = None;
    on_switch = None;
  }

let spawn t ?(daemon = false) ~name fn =
  let id = t.nprocs in
  let p = { name; daemon; state = Not_started fn; nap = 0; wait = ready } in
  if t.nprocs = Array.length t.procs then begin
    let bigger = Array.make (2 * t.nprocs) p in
    Array.blit t.procs 0 bigger 0 t.nprocs;
    t.procs <- bigger
  end;
  t.procs.(t.nprocs) <- p;
  t.nprocs <- t.nprocs + 1;
  t.unfinished <- t.unfinished + 1;
  if not daemon then t.live <- t.live + 1;
  id

(* The scheduler of the calling process, checked to be inside a step. *)
let current_sched () =
  match !(active ()) with
  | None -> failwith "Sched.yield: called outside of Sched.run"
  | Some t ->
      if t.current = none then failwith "Sched.yield: no process is running";
      t

(* Nothing may suspend while a predicate is evaluated: the steps that
   evaluate it run with no continuation of their own to capture. *)
let not_polling t =
  if t.polling then
    invalid_arg
      "Sched.wait_until: the predicate yielded; a wait_until predicate must \
       not yield (loop on Sched.yield instead)"

let running () =
  let t = current_sched () in
  not_polling t;
  t

let steps t = t.step_count

let finished t pid = match t.procs.(pid).state with Finished -> true | _ -> false

let set_on_switch t hook = t.on_switch <- hook

(* Every process a policy may pick is unfinished: picks happen between
   steps, or while the one [Running] process is yielding. *)
let runnable t pid =
  match (Array.unsafe_get t.procs pid).state with Finished -> false | _ -> true

(* The [k]-th unfinished process in spawn order, once some process has
   finished (before that it is [k] itself). *)
let nth_runnable t k =
  let i = ref 0 and k = ref k in
  while !k > 0 || not (runnable t !i) do
    if runnable t !i then decr k;
    incr i
  done;
  !i

(* The first runnable process at or after the cursor, wrapping once.
   The cursor stays below [nprocs] (which only grows), so compare and
   wrap replaces the two divisions a [mod n] step would take. *)
let pick_round_robin t =
  let n = t.nprocs in
  let idx = ref t.rr_cursor in
  let left = ref n in
  while !left > 0 && not (runnable t !idx) do
    idx := if !idx + 1 = n then 0 else !idx + 1;
    decr left
  done;
  if !left = 0 then
    (* Only daemons are runnable but a non-daemon hasn't finished: that
       non-daemon must be Running, which is impossible here. *)
    failwith "Sched.run: non-daemon process neither runnable nor finished";
  t.rr_cursor <- (if !idx + 1 = n then 0 else !idx + 1);
  !idx

let stalled t =
  raise
    (Stalled (Printf.sprintf "no termination after %d scheduling steps" t.step_count))

(* Take scheduling steps until one must resume a process, and return that
   process ([none] once every non-daemon has finished).  A step first
   spends the rest of the current quantum, then picks afresh.  A napping
   or parked process takes its step without being resumed: the step costs
   a counter decrement or a predicate call instead of a continuation
   switch — and the pick, the step count and the hook are exactly those
   of the process resuming only to yield again.  Called by [run] and, on
   the yielding process's own fiber, by every yield.

   This is the simulator's innermost loop (a self tail call, so a jump),
   and a no-op step under [Random] does only: the [max_steps] check, one
   inlined draw, the step count, [current], the hook, then the nap
   decrement or the predicate call.  The quantum's burst is only written
   when [quantum > 1], and the search for the [k]-th unfinished process
   only runs once a process has finished.  Everything is re-read from [t]
   at each step, because a hook or a predicate may [spawn].  A predicate
   is called with no handler around it: what it raises leaves [advance]
   with [polling] still set, and ends the run (via [hand_over] when on a
   yielding process's fiber), whose exit clears the flag. *)
let rec advance t =
  let pid =
    if t.burst > 0 && runnable t t.burst_pid then begin
      t.burst <- t.burst - 1;
      t.burst_pid
    end
    else if t.live = 0 then none
    else begin
      if t.step_count >= t.max_steps then stalled t;
      let pid =
        match t.policy with
        | Random rng ->
            (* The next step's draw is made here, before this step
               branches on its pick: which process a pick lands on is a
               branch the host cannot predict, and the draw is two
               multiplies in series, so made after the branch it would
               restart from scratch at every misprediction. *)
            let k = Otfgc_support.Rng.reduce t.drawn t.unfinished in
            t.drawn <- Otfgc_support.Rng.raw rng;
            if t.unfinished = t.nprocs then k else nth_runnable t k
        | Round_robin -> pick_round_robin t
      in
      t.step_count <- t.step_count + 1;
      if t.quantum > 1 then begin
        t.burst <- t.quantum - 1;
        t.burst_pid <- pid
      end;
      pid
    end
  in
  if pid = none then none
  else begin
    let p = Array.unsafe_get t.procs pid in
    t.current <- pid;
    (match t.on_switch with Some f -> f p.name | None -> ());
    if p.nap > 0 then begin
      p.nap <- p.nap - 1;
      advance t
    end
    else if p.wait == ready then pid
    else begin
      t.polling <- true;
      let holds = p.wait () in
      t.polling <- false;
      if holds then begin
        p.wait <- ready;
        pid
      end
      else advance t
    end
  end

(* The calling process has yielded.  Take the scheduler's following steps
   here; suspend only to hand the CPU to another process, which [run]
   then resumes without picking again.  What the steps raise is handed to
   [run] too, so the yielding process never sees it. *)
let hand_over t =
  let self = t.current in
  match advance t with
  | pid when pid = self -> ()
  | pid ->
      t.next <- pid;
      perform Switch
  | exception e ->
      t.failure <- Some (e, Printexc.get_raw_backtrace ());
      perform Switch

let yield () = hand_over (running ())

(* [n] consecutive yields as one: the process naps through its next
   [n - 1] picks, each of which only decrements [nap]. *)
let yield_n n =
  if n > 0 then begin
    let t = running () in
    t.procs.(t.current).nap <- n - 1;
    hand_over t
  end

(* The first check of a wait, made inside the waiting process: what
   [cond] raises reaches the process, so the flag is cleared on the way. *)
let poll t cond =
  t.polling <- true;
  match cond () with
  | b ->
      t.polling <- false;
      b
  | exception e ->
      t.polling <- false;
      raise e

(* Checked once here, then at every pick of the process: it is only
   resumed once [cond] holds.  Outside a process (the spawning domain of a
   domains run, say) there is nothing to park, and a wait that already
   holds returns at once, as the plain yield loop did. *)
let wait_until cond =
  match !(active ()) with
  | Some t when t.current <> none ->
      not_polling t;
      if not (poll t cond) then begin
        t.procs.(t.current).wait <- cond;
        hand_over t
      end
  | _ -> if not (cond ()) then yield ()

let self_name () =
  let t = current_sched () in
  t.procs.(t.current).name

(* Run [p] until it hands the CPU over or finishes: either start its body
   under a fresh deep handler, or continue its stored continuation. *)
let resume t p =
  match p.state with
  | Not_started fn ->
      p.state <- Running;
      let on_handover = Some (fun k -> p.state <- Suspended k) in
      match_with
        (fun () ->
          fn ();
          p.state <- Finished;
          t.unfinished <- t.unfinished - 1;
          if not p.daemon then t.live <- t.live - 1)
        ()
        {
          retc = (fun () -> ());
          exnc =
            (fun e ->
              Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ()));
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Switch -> (on_handover : ((a, _) continuation -> _) option)
              | _ -> None);
        }
  | Suspended k ->
      p.state <- Running;
      continue k ()
  | Running | Finished -> assert false

let run ?(max_steps = max_int) t =
  let active = active () in
  (match !active with
  | Some _ -> failwith "Sched.run: schedulers cannot nest"
  | None -> active := Some t);
  Fun.protect
    ~finally:(fun () ->
      t.current <- none;
      t.polling <- false;
      t.burst <- 0;
      t.next <- none;
      t.failure <- None;
      active := None)
    (fun () ->
      t.max_steps <- max_steps;
      let pid = ref (advance t) in
      while !pid <> none do
        resume t t.procs.(!pid);
        (match t.failure with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ());
        if t.next <> none then begin
          pid := t.next;
          t.next <- none
        end
        else pid := advance t
      done)
