(* Tests for the effects-based deterministic scheduler: interleaving,
   determinism, daemons, stall detection, quantum behaviour. *)

open Otfgc_sched
module Rng = Otfgc_support.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_single_process () =
  let s = Sched.create () in
  let hits = ref 0 in
  let p =
    Sched.spawn s ~name:"p" (fun () ->
        for _ = 1 to 5 do
          incr hits;
          Sched.yield ()
        done)
  in
  Sched.run s;
  check_int "ran to completion" 5 !hits;
  check "finished" true (Sched.finished s p)

let test_round_robin_interleaving () =
  let s = Sched.create ~policy:Sched.round_robin () in
  let log = Buffer.create 16 in
  let mk name =
    ignore
      (Sched.spawn s ~name (fun () ->
           for _ = 1 to 3 do
             Buffer.add_string log name;
             Sched.yield ()
           done))
  in
  mk "a";
  mk "b";
  Sched.run s;
  Alcotest.(check string) "strict alternation" "ababab" (Buffer.contents log)

let test_random_policy_deterministic () =
  let trace seed =
    let s = Sched.create ~policy:(Sched.random_policy (Rng.make seed)) () in
    let log = Buffer.create 64 in
    let mk name =
      ignore
        (Sched.spawn s ~name (fun () ->
             for _ = 1 to 10 do
               Buffer.add_string log name;
               Sched.yield ()
             done))
    in
    mk "a";
    mk "b";
    mk "c";
    Sched.run s;
    Buffer.contents log
  in
  Alcotest.(check string) "same seed same schedule" (trace 5) (trace 5);
  check "different seed differs" true (trace 5 <> trace 6)

let test_daemon_does_not_block_exit () =
  let s = Sched.create () in
  let spins = ref 0 in
  ignore
    (Sched.spawn s ~daemon:true ~name:"daemon" (fun () ->
         while true do
           incr spins;
           Sched.yield ()
         done));
  ignore (Sched.spawn s ~name:"worker" (fun () -> Sched.yield ()));
  Sched.run s;
  check "daemon ran but did not block exit" true (!spins > 0)

let test_wait_until () =
  let s = Sched.create () in
  let flag = ref false in
  let woke = ref false in
  ignore
    (Sched.spawn s ~name:"waiter" (fun () ->
         Sched.wait_until (fun () -> !flag);
         woke := true));
  ignore
    (Sched.spawn s ~name:"setter" (fun () ->
         for _ = 1 to 3 do
           Sched.yield ()
         done;
         flag := true));
  Sched.run s;
  check "waiter woke after flag" true !woke

let test_stall_detection () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s ~name:"livelock" (fun () -> Sched.wait_until (fun () -> false)));
  check "raises Stalled" true
    (match Sched.run ~max_steps:1000 s with
    | () -> false
    | exception Sched.Stalled _ -> true)

let test_exception_propagates () =
  let s = Sched.create () in
  ignore (Sched.spawn s ~name:"boom" (fun () -> failwith "boom"));
  Alcotest.check_raises "propagates" (Failure "boom") (fun () -> Sched.run s)

let test_yield_outside_process () =
  check "yield outside run fails" true
    (match Sched.yield () with
    | () -> false
    | exception Failure _ -> true)

(* A wait that already holds needs no process: runtime code shared with
   the domains substrate waits this way on the spawning domain. *)
let test_wait_until_outside_process () =
  Sched.wait_until (fun () -> true);
  check "unmet wait outside run fails" true
    (match Sched.wait_until (fun () -> false) with
    | () -> false
    | exception Failure _ -> true)

let test_spawn_during_run () =
  let s = Sched.create () in
  let child_ran = ref false in
  ignore
    (Sched.spawn s ~name:"parent" (fun () ->
         ignore
           (Sched.spawn s ~name:"child" (fun () -> child_ran := true));
         Sched.yield ()));
  Sched.run s;
  check "child spawned mid-run executes" true !child_ran

let test_self_name () =
  let s = Sched.create () in
  let seen = ref "" in
  ignore (Sched.spawn s ~name:"iam" (fun () -> seen := Sched.self_name ()));
  Sched.run s;
  Alcotest.(check string) "self name" "iam" !seen

let test_quantum_batches () =
  (* With quantum 3, a process should run 3 yields before the other gets a
     turn. *)
  let s = Sched.create ~policy:Sched.round_robin ~quantum:3 () in
  let log = Buffer.create 16 in
  let mk name =
    ignore
      (Sched.spawn s ~name (fun () ->
           for _ = 1 to 6 do
             Buffer.add_string log name;
             Sched.yield ()
           done))
  in
  mk "a";
  mk "b";
  Sched.run s;
  Alcotest.(check string) "batched" "aaabbbaaabbb" (Buffer.contents log)

let test_on_switch_hook () =
  let s = Sched.create () in
  let switches = ref [] in
  Sched.set_on_switch s (Some (fun n -> switches := n :: !switches));
  ignore (Sched.spawn s ~name:"x" (fun () -> Sched.yield ()));
  Sched.run s;
  check "hook fired" true (List.length !switches >= 1);
  check "hook saw name" true (List.for_all (( = ) "x") !switches)

let test_steps_counted () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s ~name:"p" (fun () ->
         for _ = 1 to 4 do
           Sched.yield ()
         done));
  Sched.run s;
  check "steps positive" true (Sched.steps s > 0)

let prop_random_schedules_complete =
  QCheck.Test.make ~name:"random schedules always complete all processes"
    ~count:50 QCheck.(pair small_int (int_bound 5))
    (fun (seed, extra) ->
      let s = Sched.create ~policy:(Sched.random_policy (Rng.make seed)) () in
      let n = 2 + extra in
      let done_count = ref 0 in
      for i = 0 to n - 1 do
        ignore
          (Sched.spawn s ~name:(string_of_int i) (fun () ->
               for _ = 1 to 5 do
                 Sched.yield ()
               done;
               incr done_count))
      done;
      Sched.run s;
      !done_count = n)

let test_yielding_predicate_rejected () =
  let raises body =
    let s = Sched.create () in
    ignore (Sched.spawn s ~name:"waiter" body);
    match Sched.run ~max_steps:100 s with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  (* yielding in the first check, made inside the process *)
  check "first check" true
    (raises (fun () ->
         Sched.wait_until (fun () ->
             Sched.yield ();
             true)));
  (* yielding in a later check, made by the scheduler *)
  let calls = ref 0 in
  check "scheduler check" true
    (raises (fun () ->
         Sched.wait_until (fun () ->
             incr calls;
             if !calls > 1 then Sched.yield_n 2;
             !calls > 2)));
  check "nested wait_until" true
    (raises (fun () ->
         Sched.wait_until (fun () ->
             Sched.wait_until (fun () -> true);
             true)));
  (* yielding in a check made on another process's fiber: once [busy]
     has started, the parked waiter is never resumed again, so every
     later check runs inside [busy]'s yields *)
  let s = Sched.create ~policy:(Sched.random_policy (Rng.make 3)) () in
  let busy_started = ref false and yielded = ref false in
  ignore
    (Sched.spawn s ~name:"waiter" (fun () ->
         Sched.wait_until (fun () ->
             if !busy_started then begin
               yielded := true;
               Sched.yield ()
             end;
             false)));
  ignore
    (Sched.spawn s ~name:"busy" (fun () ->
         busy_started := true;
         for _ = 1 to 1_000 do
           Sched.yield ()
         done));
  check "check on another fiber" true
    (match Sched.run ~max_steps:10_000 s with
    | () -> false
    | exception Invalid_argument _ -> !yielded)

(* ------------------------------------------------------------------ *)
(* Equivalence with the scheduler that resumed every process at every  *)
(* step                                                                *)
(* ------------------------------------------------------------------ *)

(* The scheduler as it was before parking and napping: [wait_until] is a
   yield loop inside the process, [yield_n] is [n] plain yields, and a
   [Random] pick builds the candidate list and array. *)
module Reference = struct
  open Effect
  open Effect.Deep

  type _ Effect.t += Yield : unit Effect.t

  type state =
    | Not_started of (unit -> unit)
    | Suspended of (unit, unit) continuation
    | Running
    | Finished

  type proc = { name : string; daemon : bool; mutable state : state }

  type t = {
    random : Rng.t option;
    quantum : int;
    mutable procs : proc array;
    mutable rr_cursor : int;
    mutable step_count : int;
    on_switch : string -> unit;
  }

  let create ~random ~quantum ~on_switch =
    { random; quantum; procs = [||]; rr_cursor = 0; step_count = 0; on_switch }

  let spawn t ~daemon ~name fn =
    t.procs <- Array.append t.procs [| { name; daemon; state = Not_started fn } |]

  let yield () = perform Yield

  let yield_n n =
    for _ = 1 to n do
      yield ()
    done

  let wait_until p =
    while not (p ()) do
      yield ()
    done

  let runnable p = match p.state with Not_started _ | Suspended _ -> true | _ -> false

  let pending t =
    Array.fold_left
      (fun n p -> if (not p.daemon) && p.state <> Finished then n + 1 else n)
      0 t.procs

  let pick t =
    let n = Array.length t.procs in
    match t.random with
    | None ->
        let found = ref None in
        let i = ref 0 in
        while !found = None && !i < n do
          let idx = (t.rr_cursor + !i) mod n in
          if runnable t.procs.(idx) then begin
            found := Some t.procs.(idx);
            t.rr_cursor <- (idx + 1) mod n
          end;
          incr i
        done;
        !found
    | Some rng -> (
        let candidates = ref [] in
        for i = n - 1 downto 0 do
          if runnable t.procs.(i) then candidates := t.procs.(i) :: !candidates
        done;
        match !candidates with
        | [] -> None
        | l -> Some (Rng.pick rng (Array.of_list l)))

  let resume t p =
    t.on_switch p.name;
    match p.state with
    | Not_started fn ->
        p.state <- Running;
        match_with
          (fun () ->
            fn ();
            p.state <- Finished)
          ()
          {
            retc = (fun () -> ());
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Yield ->
                    Some (fun (k : (a, _) continuation) -> p.state <- Suspended k)
                | _ -> None);
          }
    | Suspended k ->
        p.state <- Running;
        continue k ()
    | Running | Finished -> assert false

  let run ~max_steps t =
    while pending t > 0 do
      if t.step_count >= max_steps then raise (Sched.Stalled "reference");
      match pick t with
      | None -> assert false
      | Some p ->
          t.step_count <- t.step_count + 1;
          let q = ref t.quantum in
          while !q > 0 && runnable p do
            resume t p;
            decr q
          done
    done
end

type op =
  | Yield
  | Yield_n of int
  | Wait of int
  | Wait_raise of int  (** a wait whose predicate raises at its [k+1]-th call *)
  | Wait_spawn of int * op list
      (** a wait whose predicate spawns a non-daemon child running these
          ops at its [k]-th call, and holds from the next call on *)
  | Spawn of op list  (** start a non-daemon child running these ops *)

(* One process of a random program: its ops in order; a daemon repeats
   them, with a yield after each round, forever. *)
type program_proc = { daemon : bool; ops : op list }

type prims = {
  yield : unit -> unit;
  yield_n : int -> unit;
  wait_until : (unit -> bool) -> unit;
  spawn : daemon:bool -> name:string -> (unit -> unit) -> unit;
}

exception Predicate_raised of string

(* [Wait k] waits for [k] ops to have completed across all processes, a
   pure predicate over shared state that other processes advance.  Every
   predicate call is counted in [polls], per wait: a predicate may charge
   cost (the runtime's waits call [cooperate] in theirs), so the counts
   must match too. *)
let rec exec prims progress log polls name { daemon; ops } () =
  let children = ref 0 and waits = ref 0 in
  let spawn_child ops =
    incr children;
    let child = Printf.sprintf "%s.%d" name !children in
    prims.spawn ~daemon:false ~name:child
      (exec prims progress log polls child { daemon = false; ops })
  in
  let wait p =
    incr waits;
    let id = Printf.sprintf "%s#%d" name !waits in
    let calls = ref 0 in
    prims.wait_until (fun () ->
        incr calls;
        Hashtbl.replace polls id !calls;
        p !calls)
  in
  let round () =
    List.iter
      (fun op ->
        (match op with
        | Yield -> prims.yield ()
        | Yield_n k -> prims.yield_n k
        | Wait k -> wait (fun _ -> !progress >= k)
        | Wait_raise k ->
            wait (fun calls ->
                if calls > k then raise (Predicate_raised name);
                false)
        | Wait_spawn (k, ops) ->
            wait (fun calls ->
                if calls = k then spawn_child ops;
                calls > k)
        | Spawn ops -> spawn_child ops);
        incr progress;
        log := name :: !log)
      ops
  in
  if daemon then
    while true do
      round ();
      prims.yield ()
    done
  else round ()

type outcome = Done | Stalled | Raised of string

(* How the run ended, the op completion order, and the predicate calls
   per wait of one run of [program]. *)
let run_program ~run prims program =
  let progress = ref 0 in
  let log = ref [] in
  let polls = Hashtbl.create 16 in
  List.iteri
    (fun i pp ->
      let name = Printf.sprintf "p%d" i in
      prims.spawn ~daemon:pp.daemon ~name (exec prims progress log polls name pp))
    program;
  let outcome =
    match run () with
    | () -> Done
    | exception Sched.Stalled _ -> Stalled
    | exception Predicate_raised n -> Raised n
  in
  (outcome, List.rev !log, List.sort compare (List.of_seq (Hashtbl.to_seq polls)))

let run_new ~seed ~quantum ~max_steps program =
  let policy =
    match seed with
    | None -> Sched.round_robin
    | Some s -> Sched.random_policy (Rng.make s)
  in
  let s = Sched.create ~policy ~quantum () in
  let switches = ref [] in
  Sched.set_on_switch s (Some (fun n -> switches := n :: !switches));
  let outcome, log, polls =
    run_program
      ~run:(fun () -> Sched.run ~max_steps s)
      {
        yield = Sched.yield;
        yield_n = Sched.yield_n;
        wait_until = Sched.wait_until;
        spawn = (fun ~daemon ~name fn -> ignore (Sched.spawn s ~daemon ~name fn));
      }
      program
  in
  (List.rev !switches, Sched.steps s, outcome, log, polls)

let run_reference ~seed ~quantum ~max_steps program =
  let switches = ref [] in
  let r =
    Reference.create ~random:(Option.map Rng.make seed) ~quantum
      ~on_switch:(fun n -> switches := n :: !switches)
  in
  let outcome, log, polls =
    run_program
      ~run:(fun () -> Reference.run ~max_steps r)
      {
        yield = Reference.yield;
        yield_n = Reference.yield_n;
        wait_until = Reference.wait_until;
        spawn = Reference.spawn r;
      }
      program
  in
  (List.rev !switches, r.Reference.step_count, outcome, log, polls)

let gen_program =
  let open QCheck.Gen in
  let base =
    [
      (3, return Yield);
      (3, map (fun k -> Yield_n k) (int_bound 6));
      (2, map (fun k -> Wait k) (int_bound 30));
      (1, map (fun k -> Wait_raise k) (int_bound 20));
    ]
  in
  let leaf = frequency base in
  let children = list_size (int_range 0 6) leaf in
  let op =
    frequency
      ((1, map (fun ops -> Spawn ops) children)
      :: (1, map2 (fun k ops -> Wait_spawn (k, ops)) (int_range 1 8) children)
      :: base)
  in
  let proc daemon = map (fun ops -> { daemon; ops }) (list_size (int_range 0 10) op) in
  let* workers = list_size (int_range 1 4) (proc false) in
  let* daemon = opt (map (fun ops -> { daemon = true; ops }) (list_size (int_range 1 4) op)) in
  let* seed = opt small_nat in
  let* quantum = int_range 1 3 in
  let* max_steps = frequency [ (3, return 2_000); (1, int_range 1 40) ] in
  return (seed, quantum, max_steps, workers @ Option.to_list daemon)

let print_program (seed, quantum, max_steps, program) =
  let rec op = function
    | Yield -> "y"
    | Yield_n k -> Printf.sprintf "y%d" k
    | Wait k -> Printf.sprintf "w%d" k
    | Wait_raise k -> Printf.sprintf "r%d" k
    | Wait_spawn (k, ops) ->
        Printf.sprintf "ws%d(%s)" k (String.concat " " (List.map op ops))
    | Spawn ops -> Printf.sprintf "s(%s)" (String.concat " " (List.map op ops))
  in
  Printf.sprintf "%s q=%d max=%d %s"
    (match seed with None -> "round-robin" | Some s -> Printf.sprintf "random %d" s)
    quantum max_steps
    (String.concat " | "
       (List.map
          (fun p ->
            (if p.daemon then "daemon: " else "")
            ^ String.concat " " (List.map op p.ops))
          program))

let prop_matches_reference =
  QCheck.Test.make ~name:"parked/napped schedule equals the reference scheduler"
    ~count:500
    (QCheck.make ~print:print_program gen_program)
    (fun (seed, quantum, max_steps, program) ->
      run_new ~seed ~quantum ~max_steps program
      = run_reference ~seed ~quantum ~max_steps program)

(* The picks after a yield run on the yielding process's fiber, but what
   they raise belongs to [run]: the process's own handler never sees it. *)
let test_on_switch_exception_escapes () =
  let s = Sched.create ~policy:Sched.round_robin () in
  let caught = ref false in
  ignore
    (Sched.spawn s ~name:"a" (fun () ->
         try
           for _ = 1 to 3 do
             Sched.yield ()
           done
         with Exit -> caught := true));
  ignore (Sched.spawn s ~name:"b" (fun () -> ()));
  Sched.set_on_switch s (Some (fun n -> if n = "b" then raise Exit));
  check "escapes run" true
    (match Sched.run s with () -> false | exception Exit -> true);
  check "not caught by the yielding process" false !caught

(* Host words allocated while [f ()] runs. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Two processes under [Random], a parked daemon and a napping worker:
   the steady state takes every step without allocating. *)
let random_noop_steps n =
  let s = Sched.create ~policy:(Sched.random_policy (Rng.make 7)) () in
  let stop = ref false in
  ignore (Sched.spawn s ~daemon:true ~name:"parked" (fun () -> Sched.wait_until (fun () -> !stop)));
  ignore
    (Sched.spawn s ~name:"napper" (fun () ->
         Sched.yield_n n;
         stop := true));
  Sched.run s

let test_noop_steps_allocate_nothing () =
  random_noop_steps 10;
  let small = minor_words (fun () -> random_noop_steps 1_000) in
  let large = minor_words (fun () -> random_noop_steps 100_000) in
  check (Printf.sprintf "10^5 steps allocate %.0f words" large) true (large < 1_000.);
  check "no growth with the step count" true (large <= small +. 64.)

let suites =
  [
    ( "sched",
      [
        Alcotest.test_case "single process" `Quick test_single_process;
        Alcotest.test_case "round robin" `Quick test_round_robin_interleaving;
        Alcotest.test_case "random deterministic" `Quick
          test_random_policy_deterministic;
        Alcotest.test_case "daemons" `Quick test_daemon_does_not_block_exit;
        Alcotest.test_case "wait_until" `Quick test_wait_until;
        Alcotest.test_case "stall detection" `Quick test_stall_detection;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "yield outside" `Quick test_yield_outside_process;
        Alcotest.test_case "wait_until outside" `Quick
          test_wait_until_outside_process;
        Alcotest.test_case "spawn during run" `Quick test_spawn_during_run;
        Alcotest.test_case "self name" `Quick test_self_name;
        Alcotest.test_case "quantum" `Quick test_quantum_batches;
        Alcotest.test_case "on_switch hook" `Quick test_on_switch_hook;
        Alcotest.test_case "steps counted" `Quick test_steps_counted;
        QCheck_alcotest.to_alcotest prop_random_schedules_complete;
        Alcotest.test_case "yielding predicate rejected" `Quick
          test_yielding_predicate_rejected;
        QCheck_alcotest.to_alcotest prop_matches_reference;
        Alcotest.test_case "on_switch exception escapes run" `Quick
          test_on_switch_exception_escapes;
        Alcotest.test_case "no-op steps allocate nothing" `Quick
          test_noop_steps_allocate_nothing;
      ] );
  ]
