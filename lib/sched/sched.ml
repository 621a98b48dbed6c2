open Effect
open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

type state =
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) continuation
  | Running
  | Finished

(* A suspended process may owe the scheduler no-op steps before it is
   resumed: [nap] picks still to sleep through (set by [yield_n]), then
   [wait] to hold (set by [wait_until]; [ready] when not parked). *)
type proc = {
  id : int;
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

type t = {
  policy : policy;
  quantum : int;
  mutable procs : proc array;
  mutable nprocs : int;
  mutable live : int;  (** unfinished non-daemon processes *)
  mutable current : proc;  (** [nobody] between steps *)
  mutable polling : bool;  (** a [wait_until] predicate is being evaluated *)
  mutable rr_cursor : int;
  mutable step_count : int;
  mutable on_switch : (string -> unit) option;
}

let ready () = true

let nobody =
  { id = -1; name = ""; daemon = true; state = Finished; nap = 0; wait = ready }

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
    procs = Array.make 8 nobody;
    nprocs = 0;
    live = 0;
    current = nobody;
    polling = false;
    rr_cursor = 0;
    step_count = 0;
    on_switch = None;
  }

let spawn t ?(daemon = false) ~name fn =
  let id = t.nprocs in
  let p = { id; name; daemon; state = Not_started fn; nap = 0; wait = ready } in
  if t.nprocs = Array.length t.procs then begin
    let bigger = Array.make (2 * t.nprocs) p in
    Array.blit t.procs 0 bigger 0 t.nprocs;
    t.procs <- bigger
  end;
  t.procs.(t.nprocs) <- p;
  t.nprocs <- t.nprocs + 1;
  if not daemon then t.live <- t.live + 1;
  id

(* The scheduler of the calling process, checked to be inside a step. *)
let current_sched () =
  match !(active ()) with
  | None -> failwith "Sched.yield: called outside of Sched.run"
  | Some t ->
      if t.current == nobody then failwith "Sched.yield: no process is running";
      t

(* Predicates run in the scheduler, where there is no continuation to
   capture, so nothing may suspend while one is evaluated. *)
let not_polling t =
  if t.polling then
    invalid_arg
      "Sched.wait_until: the predicate yielded; a wait_until predicate must \
       not yield (loop on Sched.yield instead)"

let running () =
  let t = current_sched () in
  not_polling t;
  t

let yield () =
  ignore (running ());
  perform Yield

(* [n] consecutive yields, of which only the first suspends: the
   scheduler sleeps through the next [n - 1] picks of this process. *)
let yield_n n =
  if n > 0 then begin
    let t = running () in
    t.current.nap <- n - 1;
    perform Yield
  end

let poll t cond =
  t.polling <- true;
  match cond () with
  | b ->
      t.polling <- false;
      b
  | exception e ->
      t.polling <- false;
      raise e

(* Checked once here, then on every pick by the scheduler itself: the
   process is only resumed once [cond] holds.  Outside a process (the
   spawning domain of a domains run, say) there is nothing to park, and a
   wait that already holds returns at once, as the plain yield loop did. *)
let wait_until cond =
  match !(active ()) with
  | Some t when t.current != nobody ->
      not_polling t;
      if not (poll t cond) then begin
        t.current.wait <- cond;
        perform Yield
      end
  | _ -> if not (cond ()) then yield ()

let self_name () = (current_sched ()).current.name

let steps t = t.step_count

let finished t pid = match t.procs.(pid).state with Finished -> true | _ -> false

let set_on_switch t hook = t.on_switch <- hook

let runnable p = match p.state with Not_started _ | Suspended _ -> true | _ -> false

(* The [k]-th runnable process in spawn order. *)
let nth_runnable t k =
  let rec go i k =
    let p = t.procs.(i) in
    if runnable p then if k = 0 then p else go (i + 1) (k - 1) else go (i + 1) k
  in
  go 0 k

let pick t =
  match t.policy with
  | Round_robin ->
      let n = t.nprocs in
      let found = ref nobody in
      let i = ref 0 in
      while !found == nobody && !i < n do
        let idx = (t.rr_cursor + !i) mod n in
        if runnable t.procs.(idx) then begin
          found := t.procs.(idx);
          t.rr_cursor <- (idx + 1) mod n
        end;
        incr i
      done;
      !found
  | Random rng ->
      let count = ref 0 in
      for i = 0 to t.nprocs - 1 do
        if runnable t.procs.(i) then incr count
      done;
      if !count = 0 then nobody
      else nth_runnable t (Otfgc_support.Rng.int rng !count)

(* Run [p] for one step: either start its body under a fresh deep
   handler, or continue its stored continuation.  Control comes back here
   when the process yields (handler stores the new continuation) or
   finishes. *)
let resume t p =
  match p.state with
  | Not_started fn ->
      p.state <- Running;
      let on_yield = Some (fun k -> p.state <- Suspended k) in
      match_with
        (fun () ->
          fn ();
          p.state <- Finished;
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
              | Yield -> (on_yield : ((a, _) continuation -> _) option)
              | _ -> None);
        }
  | Suspended k ->
      p.state <- Running;
      continue k ()
  | Running | Finished -> assert false

(* One step of [p].  A napping or parked process takes it without being
   resumed, so the step costs a counter decrement or a predicate call
   instead of a continuation switch — and the pick, the step count and the
   hook are exactly those of the process resuming only to yield again. *)
let step t p =
  t.current <- p;
  (match t.on_switch with Some f -> f p.name | None -> ());
  if p.nap > 0 then p.nap <- p.nap - 1
  else if p.wait == ready || poll t p.wait then begin
    p.wait <- ready;
    resume t p
  end;
  t.current <- nobody

let run ?(max_steps = max_int) t =
  let active = active () in
  (match !active with
  | Some _ -> failwith "Sched.run: schedulers cannot nest"
  | None -> active := Some t);
  Fun.protect
    ~finally:(fun () ->
      t.current <- nobody;
      active := None)
    (fun () ->
      while t.live > 0 do
        if t.step_count >= max_steps then
          raise
            (Stalled
               (Printf.sprintf "no termination after %d scheduling steps"
                  t.step_count));
        let p = pick t in
        if p == nobody then
          (* Only daemons are runnable but a non-daemon hasn't finished:
             that non-daemon must be Running, which is impossible here. *)
          failwith "Sched.run: non-daemon process neither runnable nor finished";
        t.step_count <- t.step_count + 1;
        let q = ref t.quantum in
        while !q > 0 && runnable p do
          step t p;
          decr q
        done
      done)
