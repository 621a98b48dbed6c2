(* Work-stealing deque tests: the Chase–Lev deque behind the parallel
   trace must (a) behave exactly like a LIFO stack for its single owner,
   (b) never lose or duplicate an element under concurrent stealing, and
   (c) slot into Gray_queue without disturbing the unsharded queue a
   width-1 crew runs on.

   The differential model in (a) is QCheck-driven: an arbitrary
   push/pop program runs against the deque and a plain list stack; any
   divergence is a counterexample.  The stress in (b) spawns real
   domains: one owner pushing and popping, several thieves stealing,
   and at the end every pushed value must have been consumed exactly
   once — the "no lost, no duplicated work" contract the trace
   termination argument relies on. *)

module Ws_deque = Otfgc_sched.Ws_deque
module Gray_queue = Otfgc.Gray_queue

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Owner-only differential model: deque == list stack                  *)
(* ------------------------------------------------------------------ *)

(* A program is a list of operations: [Some x] pushes x, [None] pops.
   With no thieves, push/pop must be exactly a stack. *)
let prop_owner_lifo =
  QCheck.Test.make ~name:"owner-only deque is a stack" ~count:500
    QCheck.(list (option (int_bound 1_000_000)))
    (fun prog ->
      let d = Ws_deque.create () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | Some x ->
              Ws_deque.push d x;
              model := x :: !model
          | None -> (
              let got = Ws_deque.pop d in
              match (got, !model) with
              | None, [] -> ()
              | Some x, y :: rest when x = y -> model := rest
              | _ ->
                  QCheck.Test.fail_reportf
                    "pop diverged from stack model: got %s, model head %s"
                    (match got with
                    | None -> "None"
                    | Some x -> string_of_int x)
                    (match !model with
                    | [] -> "empty"
                    | y :: _ -> string_of_int y)))
        prog;
      (* drain: remaining contents must equal the model, in LIFO order *)
      List.iter
        (fun y ->
          match Ws_deque.pop d with
          | Some x when x = y -> ()
          | got ->
              QCheck.Test.fail_reportf "drain diverged: got %s, wanted %d"
                (match got with
                | None -> "None"
                | Some x -> string_of_int x)
                y)
        !model;
      Ws_deque.pop d = None && Ws_deque.is_empty d)

(* Growth: push far past the initial 64-slot ring, then drain. *)
let test_grow () =
  let d = Ws_deque.create () in
  let n = 10_000 in
  for i = 1 to n do
    Ws_deque.push d i
  done;
  check_int "size after pushes" n (Ws_deque.size d);
  for i = n downto 1 do
    match Ws_deque.pop d with
    | Some x -> check_int "LIFO drain across growth" i x
    | None -> Alcotest.fail "deque empty too early"
  done;
  check_int "empty after drain" 0 (Ws_deque.size d);
  Alcotest.(check bool) "max_size saw the high water" true (Ws_deque.max_size d >= n)

(* Steal from the top = FIFO order when the owner only pushes. *)
let test_steal_fifo () =
  let d = Ws_deque.create () in
  for i = 1 to 100 do
    Ws_deque.push d i
  done;
  for i = 1 to 100 do
    match Ws_deque.steal d with
    | Some x -> check_int "steal takes oldest first" i x
    | None -> Alcotest.fail "steal found deque empty too early"
  done;
  Alcotest.(check bool) "empty after steals" true (Ws_deque.is_empty d)

(* ------------------------------------------------------------------ *)
(* Concurrent-steal stress on real domains                             *)
(* ------------------------------------------------------------------ *)

(* One owner pushes [n_items] values (popping a few back, as the trace
   does), [n_thieves] domains steal concurrently.  Every value carries
   its index; at the end the union of owner-popped and thief-stolen
   values must be exactly {0..n_items-1}, each exactly once. *)
let steal_stress ~n_thieves ~n_items () =
  let d = Ws_deque.create () in
  let seen = Array.make n_items 0 in
  let seen_lock = Mutex.create () in
  let consume xs =
    Mutex.lock seen_lock;
    List.iter (fun x -> seen.(x) <- seen.(x) + 1) xs;
    Mutex.unlock seen_lock
  in
  let done_pushing = Atomic.make false in
  let thief () =
    let got = ref [] in
    let rec loop misses =
      match Ws_deque.steal d with
      | Some x ->
          got := x :: !got;
          loop 0
      | None ->
          if Atomic.get done_pushing && Ws_deque.is_empty d && misses > 100
          then ()
          else begin
            Domain.cpu_relax ();
            loop (misses + 1)
          end
    in
    loop 0;
    consume !got
  in
  let thieves = Array.init n_thieves (fun _ -> Domain.spawn thief) in
  let mine = ref [] in
  for i = 0 to n_items - 1 do
    Ws_deque.push d i;
    (* pop a few back, like the trace interleaving marks with pushes *)
    if i mod 7 = 0 then
      match Ws_deque.pop d with
      | Some x -> mine := x :: !mine
      | None -> ()
  done;
  (* owner drains what the thieves leave behind *)
  let rec drain () =
    match Ws_deque.pop d with
    | Some x ->
        mine := x :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set done_pushing true;
  Array.iter Domain.join thieves;
  consume !mine;
  Array.iteri
    (fun i c ->
      if c <> 1 then
        Alcotest.failf "item %d consumed %d times (want exactly once)" i c)
    seen

let test_steal_stress_2 () = steal_stress ~n_thieves:2 ~n_items:20_000 ()
let test_steal_stress_3 () = steal_stress ~n_thieves:3 ~n_items:20_000 ()

(* ------------------------------------------------------------------ *)
(* Gray_queue sharding                                                 *)
(* ------------------------------------------------------------------ *)

(* With no deques armed (a width-1 crew), the sharded entry points are
   inert: push and the worker pop are the plain shared queue, exactly
   what the sim digest guard runs on. *)
let test_gray_queue_serial_untouched () =
  let q = Gray_queue.create () in
  check_int "no deques by default" 0 (Gray_queue.n_workers q);
  Gray_queue.push q 10;
  Gray_queue.push q 20;
  check_int "size" 2 (Gray_queue.size q);
  (match Gray_queue.pop_worker q ~w:0 with
  | Some x -> check_int "LIFO pop (mark stack)" 20 x
  | None -> Alcotest.fail "pop on non-empty queue");
  Alcotest.(check bool) "is_empty sees the shared tail" false
    (Gray_queue.is_empty q)

(* With deques armed (a crew of two), a worker's pushes land on its own
   deque (locally poppable, stealable by others), while unregistered
   threads still go through the shared queue. *)
let test_gray_queue_sharded_routing () =
  let q = Gray_queue.create () in
  Gray_queue.set_workers q 2;
  check_int "two deques armed" 2 (Gray_queue.n_workers q);
  (* this thread is unregistered (worker_id -1): shared queue *)
  Gray_queue.push q 1;
  check_int "unregistered push goes shared" 1 (Gray_queue.size q);
  Alcotest.(check (option int)) "pop_worker 0 empty" None
    (Gray_queue.pop_worker q ~w:0);
  (* register as worker 0: pushes now land on deque 0 *)
  Gray_queue.set_worker_id q 0;
  Gray_queue.push q 2;
  Gray_queue.push q 3;
  Alcotest.(check (option int)) "steal from worker 0 takes oldest" (Some 2)
    (Gray_queue.steal q ~victim:0);
  Alcotest.(check (option int)) "pop_worker 0 takes newest" (Some 3)
    (Gray_queue.pop_worker q ~w:0);
  (* the shared item is still there; is_empty only after it drains *)
  Alcotest.(check bool) "not all empty yet" false (Gray_queue.is_empty q);
  (match Gray_queue.pop q with
  | Some x -> check_int "shared pop" 1 x
  | None -> Alcotest.fail "shared queue lost its item");
  Alcotest.(check bool) "all empty after drain" true (Gray_queue.is_empty q);
  (* unregister so later tests on this domain see the unsharded routing *)
  Gray_queue.set_worker_id q (-1)

let suites =
  [
    ( "deque",
      [
        QCheck_alcotest.to_alcotest prop_owner_lifo;
        Alcotest.test_case "growth keeps LIFO order" `Quick test_grow;
        Alcotest.test_case "steal is FIFO" `Quick test_steal_fifo;
        Alcotest.test_case "2 thieves: exactly-once consumption" `Slow
          test_steal_stress_2;
        Alcotest.test_case "3 thieves: exactly-once consumption" `Slow
          test_steal_stress_3;
        Alcotest.test_case "gray queue: serial path untouched" `Quick
          test_gray_queue_serial_untouched;
        Alcotest.test_case "gray queue: sharded routing" `Quick
          test_gray_queue_sharded_routing;
      ] );
  ]
