(* Unit tests for the small core-library modules: Status, Gray_queue,
   Cost, Gc_stats, Card_cache, Gc_config, Mutator and the Oracle. *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Color = Otfgc_heap.Color
module Space = Otfgc_heap.Space

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Status                                                              *)
(* ------------------------------------------------------------------ *)

let test_status_cycle () =
  check "async -> sync1" true (Status.next Status.Async = Status.Sync1);
  check "sync1 -> sync2" true (Status.next Status.Sync1 = Status.Sync2);
  check "sync2 -> async" true (Status.next Status.Sync2 = Status.Async);
  check "three steps loop" true
    (Status.next (Status.next (Status.next Status.Async)) = Status.Async)

let test_status_equal () =
  check "equal" true (Status.equal Status.Sync1 Status.Sync1);
  check "not equal" false (Status.equal Status.Sync1 Status.Sync2);
  Alcotest.(check string) "to_string" "sync2" (Status.to_string Status.Sync2)

(* ------------------------------------------------------------------ *)
(* Gray_queue                                                          *)
(* ------------------------------------------------------------------ *)

let test_gray_queue_lifo () =
  let q = Gray_queue.create () in
  check "empty" true (Gray_queue.is_empty q);
  check "pop empty" true (Gray_queue.pop q = None);
  Gray_queue.push q 1;
  Gray_queue.push q 2;
  check_int "size" 2 (Gray_queue.size q);
  check "lifo order" true (Gray_queue.pop q = Some 2);
  check "then first" true (Gray_queue.pop q = Some 1);
  check "empty again" true (Gray_queue.is_empty q)

let test_gray_queue_high_water () =
  let q = Gray_queue.create () in
  for i = 1 to 10 do
    Gray_queue.push q i
  done;
  for _ = 1 to 5 do
    ignore (Gray_queue.pop q)
  done;
  Gray_queue.push q 99;
  check_int "max size tracks high water" 10 (Gray_queue.max_size q);
  Gray_queue.clear q;
  check "cleared" true (Gray_queue.is_empty q);
  check_int "max survives clear" 10 (Gray_queue.max_size q)

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)
(* ------------------------------------------------------------------ *)

let test_cost_ledger () =
  let c = Cost.create () in
  Cost.mutator c 10;
  Cost.collector c 5;
  Cost.stall c 3;
  check_int "mutator" 10 (Cost.mutator_work c);
  check_int "collector" 5 (Cost.collector_work c);
  check_int "stall" 3 (Cost.stall_work c);
  check_int "multi = m+c+s" 18 (Cost.elapsed_multi c);
  check_int "uni doubles stalls" 21 (Cost.elapsed_uni c);
  Cost.reset c;
  check_int "reset" 0 (Cost.elapsed_multi c)

let test_cost_constants_sane () =
  (* tracing an average object must dominate an allocation, sweep a block
     must not (the calibration the figures depend on) *)
  check "trace > alloc" true (Cost.c_trace_obj > Cost.c_alloc);
  check "sweep block < trace obj" true (Cost.c_sweep_block < Cost.c_trace_obj);
  check "barrier cheap" true (Cost.c_mark_card + Cost.c_card_miss < Cost.c_trace_obj)

(* ------------------------------------------------------------------ *)
(* Gc_stats                                                            *)
(* ------------------------------------------------------------------ *)

let test_gc_stats_aggregation () =
  let s = Gc_stats.create () in
  let c1 = Gc_stats.begin_cycle s Gc_stats.Partial in
  c1.Gc_stats.objects_freed <- 10;
  c1.Gc_stats.work <- 100;
  Gc_stats.end_cycle s c1;
  let c2 = Gc_stats.begin_cycle s Gc_stats.Partial in
  c2.Gc_stats.objects_freed <- 20;
  c2.Gc_stats.work <- 300;
  Gc_stats.end_cycle s c2;
  let c3 = Gc_stats.begin_cycle s Gc_stats.Full in
  c3.Gc_stats.work <- 1000;
  Gc_stats.end_cycle s c3;
  check_int "partial count" 2 (Gc_stats.count s Gc_stats.Partial);
  check_int "full count" 1 (Gc_stats.count s Gc_stats.Full);
  check_int "seq increases" 2 c3.Gc_stats.seq;
  Alcotest.(check (float 1e-9)) "mean freed partial" 15.
    (Gc_stats.mean s Gc_stats.Partial (fun c -> float_of_int c.Gc_stats.objects_freed));
  Alcotest.(check (float 1e-9)) "sum work partial" 400.
    (Gc_stats.sum s Gc_stats.Partial (fun c -> float_of_int c.Gc_stats.work));
  check "has full" true (Gc_stats.has s Gc_stats.Full);
  check "no nongen" false (Gc_stats.has s Gc_stats.Non_gen);
  Gc_stats.reset s;
  check_int "reset drops cycles" 0 (List.length (Gc_stats.cycles s))

(* The atomic counters the allocation stalls poll: begun per kind at
   [begin_cycle], completed per kind at [end_cycle], and a reset that
   keeps a cycle in flight counted as begun. *)
let test_gc_stats_begun_and_completed () =
  let s = Gc_stats.create () in
  let counts kind = (Gc_stats.n_begun_of s kind, Gc_stats.n_completed_of s kind) in
  let pair = Alcotest.(pair int int) in
  let p = Gc_stats.begin_cycle s Gc_stats.Partial in
  Alcotest.check pair "partial begun, not done" (1, 0) (counts Gc_stats.Partial);
  Gc_stats.end_cycle s p;
  let f1 = Gc_stats.begin_cycle s Gc_stats.Full in
  Gc_stats.end_cycle s f1;
  let f2 = Gc_stats.begin_cycle s Gc_stats.Full in
  Alcotest.check pair "partials" (1, 1) (counts Gc_stats.Partial);
  Alcotest.check pair "fulls, one in flight" (2, 1) (counts Gc_stats.Full);
  Alcotest.check pair "no non-gen" (0, 0) (counts Gc_stats.Non_gen);
  check_int "completed in total" 2 (Gc_stats.n_completed s);
  check_int "count agrees with n_completed_of" 1 (Gc_stats.count s Gc_stats.Full);
  Gc_stats.reset s;
  Alcotest.check pair "reset keeps the full in flight" (1, 0)
    (counts Gc_stats.Full);
  Alcotest.check pair "reset clears partials" (0, 0) (counts Gc_stats.Partial);
  Gc_stats.end_cycle s f2;
  Alcotest.check pair "in-flight full completes after reset" (1, 1)
    (counts Gc_stats.Full);
  check_int "completed since reset" 1 (Gc_stats.n_completed s);
  check_int "count agrees after reset" 1 (Gc_stats.count s Gc_stats.Full)

let test_gc_stats_incomplete_cycle_ignored () =
  let s = Gc_stats.create () in
  let _abandoned = Gc_stats.begin_cycle s Gc_stats.Partial in
  check_int "not counted until ended" 0 (Gc_stats.count s Gc_stats.Partial)

(* ------------------------------------------------------------------ *)
(* Card_cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_card_cache_hits_and_misses () =
  let c = Card_cache.create ~n_lines:4 () in
  check "first access misses" false (Card_cache.access c 0);
  check "same line hits" true (Card_cache.access c 1);
  check "same line hits again" true (Card_cache.access c 63);
  check "next line misses" false (Card_cache.access c 64);
  check_int "hits" 2 (Card_cache.hits c);
  check_int "misses" 2 (Card_cache.misses c)

let test_card_cache_eviction () =
  let c = Card_cache.create ~n_lines:2 () in
  ignore (Card_cache.access c 0);
  (* line 0, set 0 *)
  ignore (Card_cache.access c 128);
  (* line 2, also set 0: evicts *)
  check "original evicted" false (Card_cache.access c 0)

let test_card_cache_validation () =
  check "rejects non power of two" true
    (match Card_cache.create ~n_lines:3 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Gc_config                                                           *)
(* ------------------------------------------------------------------ *)

let test_gc_config () =
  Alcotest.(check string) "gen name" "generational"
    (Gc_config.mode_name Gc_config.Generational);
  Alcotest.(check string) "aging name" "generational-aging(6)"
    (Gc_config.mode_name (Gc_config.Generational_aging { oldest_age = 6 }));
  check "gen is generational" true (Gc_config.is_generational Gc_config.Generational);
  check "nongen is not" false (Gc_config.is_generational Gc_config.Non_generational);
  check "aging rejects 0" true
    (match Gc_config.aging ~oldest_age:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Mutator                                                             *)
(* ------------------------------------------------------------------ *)

(* A mutator outside any runtime still charges a ledger. *)
let scratch_ledger () =
  Ledger.create
    (Heap.layout
       (Heap.create
          { Heap.initial_bytes = 4096; max_bytes = 4096; card_size = 16 }))

let test_mutator_registers_and_stack () =
  let m = Mutator.create ~id:3 ~name:"t" ~n_regs:4 (scratch_ledger ()) in
  check_int "id" 3 (Mutator.id m);
  check_int "regs" 4 (Mutator.n_regs m);
  check_int "fresh reg is nil" Heap.nil (Mutator.get_reg m 0);
  Mutator.set_reg m 0 160;
  Mutator.push m 320;
  Mutator.push m Heap.nil;
  Mutator.push m 480;
  check_int "depth" 3 (Mutator.stack_depth m);
  let roots = ref [] in
  Mutator.iter_roots m (fun r -> roots := r :: !roots);
  check "roots = non-nil regs + stack" true
    (List.sort compare !roots = [ 160; 320; 480 ]);
  check_int "pop" 480 (Mutator.pop m);
  Mutator.clear_reg m 0;
  check_int "cleared" Heap.nil (Mutator.get_reg m 0);
  check "pop empty raises" true
    (let m2 = Mutator.create ~id:0 ~name:"e" ~n_regs:1 (scratch_ledger ()) in
     match Mutator.pop m2 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_mutator_stack_growth () =
  let m = Mutator.create ~id:0 ~name:"g" ~n_regs:1 (scratch_ledger ()) in
  for i = 1 to 100 do
    Mutator.push m (i * 16)
  done;
  check_int "deep stack" 100 (Mutator.stack_depth m);
  for i = 100 downto 1 do
    check_int "lifo" (i * 16) (Mutator.pop m)
  done

let test_mutator_retire () =
  let m = Mutator.create ~id:0 ~name:"r" ~n_regs:1 (scratch_ledger ()) in
  check "active" true (Mutator.active m);
  Mutator.retire m;
  check "retired" false (Mutator.active m)

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let test_oracle_reachability () =
  let heap =
    Heap.create { Heap.initial_bytes = 4096; max_bytes = 4096; card_size = 16 }
  in
  let st = State.create heap (Gc_config.generational ()) in
  let m = Mutator.create ~id:0 ~name:"m" ~n_regs:2 st.State.ledger in
  State.register_mutator st m;
  let a = Option.get (Heap.alloc heap ~size:32 ~n_slots:1 ~color:Color.C0) in
  let b = Option.get (Heap.alloc heap ~size:32 ~n_slots:1 ~color:Color.C0) in
  let orphan = Option.get (Heap.alloc heap ~size:32 ~n_slots:0 ~color:Color.C0) in
  Heap.set_slot heap a 0 b;
  Mutator.set_reg m 0 a;
  check_int "two reachable" 2 (Oracle.live_count st);
  Alcotest.(check (list int)) "orphan is garbage" [ orphan ] (Oracle.garbage st);
  check "safety ok" true (Oracle.check_safety st = Ok ());
  (* free the reachable child behind the oracle's back: violation *)
  Heap.free heap b;
  check "safety violation detected" true (Oracle.check_safety st <> Ok ());
  (* globals are roots too *)
  Heap.set_slot heap a 0 Heap.nil;
  st.State.globals <- [ orphan ];
  check "global rescues orphan" true (Oracle.garbage st = [])

(* The differential reference for the bitmap [Oracle]: a cons-list stack
   and a [Hashtbl] seen set, with its own block-table [is_object].  A
   dangling value joins the seen set (so it counts towards [live_count])
   but has no slots to follow. *)
module Reference_oracle = struct
  module Space = Otfgc_heap.Space

  let is_object heap addr =
    let space = Heap.space heap in
    addr >= 0
    && addr < Space.capacity space
    && addr land (Otfgc_heap.Layout.granule - 1) = 0
    && Space.is_block_start space addr
    && Space.kind_of space addr = Space.Allocated

  let reachable (st : State.t) =
    let roots = ref [] in
    List.iter
      (fun m -> Mutator.iter_roots m (fun r -> roots := r :: !roots))
      (State.active_mutators st);
    List.iter (fun g -> roots := g :: !roots) st.State.globals;
    let seen = Hashtbl.create 1024 in
    let stack = ref !roots in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest ->
          stack := rest;
          if x <> Heap.nil && not (Hashtbl.mem seen x) then begin
            Hashtbl.add seen x ();
            if is_object st.State.heap x then
              Heap.iter_slots st.State.heap x (fun y -> stack := y :: !stack)
          end
    done;
    seen

  let safe st =
    Hashtbl.fold
      (fun x () ok -> ok && is_object st.State.heap x)
      (reachable st) true

  let garbage st =
    let seen = reachable st in
    let acc = ref [] in
    Heap.iter_objects st.State.heap (fun x ->
        if not (Hashtbl.mem seen x) then acc := x :: !acc);
    List.rev !acc

  let live_count st = Hashtbl.length (reachable st)
end

(* A random object graph.  A target is an object index, nil, or a wild
   value: past the capacity, unaligned, inside an object, or negative. *)
type target = Obj of int | Nil | Wild of int

type graph = {
  slots : target array array; (* per object, its slot targets *)
  regs : target list; (* first mutator's registers *)
  stack : target list; (* first mutator's stack *)
  retired_regs : target list; (* a retired mutator: not roots *)
  globals : target list;
  freed : int list; (* objects freed behind the oracle's back *)
}

let oracle_heap_bytes = 64 * 1024

let gen_graph =
  let open QCheck.Gen in
  int_range 1 48 >>= fun n ->
  bool >>= fun wild ->
  let target =
    frequency
      ([ (6, map (fun i -> Obj i) (int_bound (n - 1))); (3, return Nil) ]
      @
      if wild then
        [
          ( 1,
            map
              (fun w -> Wild w)
              (oneofl
                 [ oracle_heap_bytes + 16; 17; 16 * 1024 * 1024; -5; 8 ]) );
        ]
      else [])
  in
  array_repeat n (int_bound 3 >>= fun k -> array_repeat k target)
  >>= fun slots ->
  list_size (int_bound 4) target >>= fun regs ->
  list_size (int_bound 3) target >>= fun stack ->
  list_size (int_bound 2) target >>= fun retired_regs ->
  list_size (int_bound 3) target >>= fun globals ->
  bool >>= fun free_some ->
  (if free_some then list_size (int_bound 3) (int_bound (n - 1))
   else return [])
  >>= fun freed -> return { slots; regs; stack; retired_regs; globals; freed }

let print_graph g =
  let t = function
    | Obj i -> Printf.sprintf "o%d" i
    | Nil -> "nil"
    | Wild w -> Printf.sprintf "w%d" w
  in
  let ts l = "[" ^ String.concat ";" (List.map t l) ^ "]" in
  Printf.sprintf "slots=%s regs=%s stack=%s retired=%s globals=%s freed=[%s]"
    (String.concat " "
       (Array.to_list
          (Array.mapi (fun i s -> Printf.sprintf "o%d:%s" i (ts (Array.to_list s)))
             g.slots)))
    (ts g.regs) (ts g.stack) (ts g.retired_regs) (ts g.globals)
    (String.concat ";" (List.map string_of_int g.freed))

let build_graph g =
  let heap =
    Heap.create
      {
        Heap.initial_bytes = oracle_heap_bytes;
        max_bytes = oracle_heap_bytes;
        card_size = 16;
      }
  in
  let st = State.create heap (Gc_config.generational ()) in
  let addrs =
    Array.map
      (fun s ->
        let n_slots = Array.length s in
        Option.get
          (Heap.alloc heap ~size:(16 + (8 * n_slots)) ~n_slots ~color:Color.C0))
      g.slots
  in
  (* Wild 8 becomes the granule after object 0's start: inside object 0,
     or the start of the next block when object 0 is one granule.  The
     other wild values are out of range, unaligned or negative. *)
  let value = function
    | Obj i -> addrs.(i)
    | Nil -> Heap.nil
    | Wild 8 -> addrs.(0) + 16
    | Wild w -> w
  in
  Array.iteri
    (fun i s -> Array.iteri (fun j t -> Heap.set_slot heap addrs.(i) j (value t)) s)
    g.slots;
  let mutator id roots =
    let m =
      Mutator.create ~id ~name:"m" ~n_regs:(max 1 (List.length roots))
        st.State.ledger
    in
    List.iteri (fun i t -> Mutator.set_reg m i (value t)) roots;
    State.register_mutator st m;
    m
  in
  let m = mutator 0 g.regs in
  List.iter (fun t -> Mutator.push m (value t)) g.stack;
  Mutator.retire (mutator 1 g.retired_regs);
  st.State.globals <- List.map value g.globals;
  List.iter
    (fun i -> if Heap.is_object heap addrs.(i) then Heap.free heap addrs.(i))
    g.freed;
  st

(* Count and total size of a list of objects. *)
let tally_sizes heap xs =
  (List.length xs, List.fold_left (fun acc x -> acc + Heap.size heap x) 0 xs)

let garbage_fold st =
  let n = ref 0 and bytes = ref 0 in
  Oracle.iter_garbage st (fun x ->
      incr n;
      bytes := !bytes + Heap.size st.State.heap x);
  (!n, !bytes)

let prop_oracle_matches_reference =
  QCheck.Test.make ~name:"bitmap oracle matches the list/Hashtbl reference"
    ~count:500
    (QCheck.make ~print:print_graph gen_graph)
    (fun g ->
      let st = build_graph g in
      let ref_safe = Reference_oracle.safe st in
      let safe = Oracle.check_safety st = Ok () in
      if safe <> ref_safe then
        QCheck.Test.fail_reportf "safety verdict %b, reference %b" safe ref_safe;
      let ref_garbage = Reference_oracle.garbage st in
      if Oracle.garbage st <> ref_garbage then
        QCheck.Test.fail_report "garbage lists differ";
      let fo, fb = Oracle.floating st in
      let ro, rb = tally_sizes st.State.heap ref_garbage in
      if (fo, fb) <> (ro, rb) then
        QCheck.Test.fail_reportf "floating (%d, %d), reference (%d, %d)" fo fb
          ro rb;
      if safe && Oracle.live_count st <> Reference_oracle.live_count st then
        QCheck.Test.fail_reportf "live_count %d, reference %d"
          (Oracle.live_count st)
          (Reference_oracle.live_count st);
      true)

(* [floating] subtracts the pass's live counts from the block counters;
   the [iter_garbage] fold walks the blocks.  Several passes run on one
   state, dropping roots in between, so a mark bit or count left over
   from an earlier pass in the reused scratch would show. *)
let prop_floating_matches_garbage_fold =
  QCheck.Test.make ~name:"floating equals the iter_garbage fold, pass after pass"
    ~count:300
    (QCheck.make ~print:print_graph gen_graph)
    (fun g ->
      let st = build_graph g in
      let heap = st.State.heap in
      let agree what =
        let fo, fb = Oracle.floating st and eo, eb = garbage_fold st in
        if (fo, fb) <> (eo, eb) then
          QCheck.Test.fail_reportf "%s: floating (%d, %d), fold (%d, %d)" what
            fo fb eo eb
      in
      agree "all roots";
      let m = List.hd (State.mutators st) in
      for i = 0 to Mutator.n_regs m - 1 do
        Mutator.clear_reg m i
      done;
      agree "no registers";
      while Mutator.stack_depth m > 0 do
        ignore (Mutator.pop m : int)
      done;
      agree "globals only";
      st.State.globals <- [];
      agree "no roots";
      if Oracle.floating st <> (Heap.object_count heap, Heap.allocated_bytes heap)
      then QCheck.Test.fail_report "rootless heap is not all garbage";
      true)

(* A heap of [bytes] bytes filled with 32-byte, two-slot objects: every
   fourth one is garbage, the rest a binary tree under one register. *)
let tree_state bytes =
  let heap =
    Heap.create { Heap.initial_bytes = bytes; max_bytes = bytes; card_size = 16 }
  in
  let st = State.create heap (Gc_config.generational ()) in
  let m = Mutator.create ~id:0 ~name:"m" ~n_regs:1 st.State.ledger in
  State.register_mutator st m;
  let live = Array.make (bytes / 32) Heap.nil in
  let n_live = ref 0 and n_alloc = ref 0 in
  let rec fill () =
    match Heap.alloc heap ~size:32 ~n_slots:2 ~color:Color.C0 with
    | None -> ()
    | Some a ->
        if !n_alloc mod 4 <> 3 then begin
          let k = !n_live in
          if k = 0 then Mutator.set_reg m 0 a
          else Heap.set_slot heap live.((k - 1) / 2) ((k - 1) mod 2) a;
          live.(k) <- a;
          incr n_live
        end;
        incr n_alloc;
        fill ()
  in
  fill ();
  st

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Warm, the floating-garbage census allocates a few words of result
   and closures per call and the colour census nothing per stride,
   whatever the heap's size: no per-object or per-pass buffers. *)
let test_census_kernels_allocate_constant () =
  let per_call st =
    let heap = st.State.heap in
    let tally = { Space.blocks = 0; bytes = 0 } in
    let strides = ref 0 in
    let census () =
      let cursor = ref 0 in
      while !cursor <> Heap.nil do
        cursor :=
          Heap.color_census heap Color.C0 tally ~from:!cursor
            ~stride:Collector.census_stride;
        incr strides
      done
    in
    ignore (Oracle.floating st : int * int);
    census ();
    let calls = 20 in
    let f =
      minor_words (fun () ->
          for _ = 1 to calls do
            ignore (Oracle.floating st : int * int)
          done)
    in
    strides := 0;
    let c =
      minor_words (fun () ->
          for _ = 1 to calls do
            census ()
          done)
    in
    (f /. float_of_int calls, c /. float_of_int !strides)
  in
  let small_f, small_c = per_call (tree_state (64 * 1024)) in
  let large_f, large_c = per_call (tree_state (1024 * 1024)) in
  check (Printf.sprintf "floating: %.1f words per call" large_f) true (large_f < 64.);
  check "floating: same at 64 KB and 1 MB" true (small_f = large_f);
  check (Printf.sprintf "census: %.2f words per stride at 64 KB" small_c) true
    (small_c = 0.);
  check (Printf.sprintf "census: %.2f words per stride at 1 MB" large_c) true
    (large_c = 0.)

(* The subtraction counts reserved blocks as garbage, so it is refused
   where they can exist. *)
let test_floating_refuses_parallel () =
  let st = tree_state (16 * 1024) in
  st.State.parallel <- true;
  check "raises Invalid_argument" true
    (match Oracle.floating st with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The scratch is cleared up to the current capacity: objects in a
   grown part of the heap are marked and counted correctly after
   earlier passes on the smaller heap. *)
let test_marks_across_growth () =
  let heap =
    Heap.create
      { Heap.initial_bytes = 4096; max_bytes = 64 * 1024; card_size = 16 }
  in
  let st = State.create heap (Gc_config.generational ()) in
  let rec fill acc =
    match Heap.alloc heap ~size:64 ~n_slots:1 ~color:Color.C0 with
    | None -> acc
    | Some a -> fill (a :: acc)
  in
  let first = fill [] in
  st.State.globals <- first;
  check "before growth: no garbage" true (Oracle.floating st = (0, 0));
  check "grew" true (Heap.grow heap ~want_bytes:(32 * 1024));
  let second = fill [] in
  st.State.globals <- second;
  check "after growth: the first fill is garbage" true
    (Oracle.floating st = tally_sizes heap first);
  check "and the fold agrees" true (garbage_fold st = tally_sizes heap first)

(* ------------------------------------------------------------------ *)
(* The clear-colour census kernel                                      *)
(* ------------------------------------------------------------------ *)

type heap_op =
  | Alloc of int * Color.t (* granules, colour *)
  | Free of int (* index into the objects so far *)
  | Reserve of int (* granules *)
  | Recolor of int * Color.t

let gen_heap_ops =
  let open QCheck.Gen in
  let color = oneofl [ Color.C0; Color.C1; Color.Gray; Color.Black ] in
  list_size (int_range 1 300)
    (frequency
       [
         (6, map2 (fun g c -> Alloc (g, c)) (int_range 1 8) color);
         (3, map (fun i -> Free i) nat);
         (1, map (fun g -> Reserve g) (int_range 1 4));
         (2, map2 (fun i c -> Recolor (i, c)) nat color);
       ])

let print_heap_ops ops =
  String.concat " "
    (List.map
       (function
         | Alloc (g, c) -> Printf.sprintf "A%d%s" g (Color.to_string c)
         | Free i -> Printf.sprintf "F%d" i
         | Reserve g -> Printf.sprintf "R%d" g
         | Recolor (i, c) -> Printf.sprintf "C%d%s" i (Color.to_string c))
       ops)

(* Freed blocks are merged into a free predecessor, as the sweep does,
   so block boundaries and stale colour bytes under free blocks vary.
   The heap is small enough that runs fill it, so its last block is
   often allocated. *)
let run_heap_ops ops =
  let heap =
    Heap.create
      { Heap.initial_bytes = 4096; max_bytes = 4096; card_size = 16 }
  in
  let objs = ref [||] in
  let nth i = if !objs = [||] then None else Some !objs.(i mod Array.length !objs) in
  List.iter
    (function
      | Alloc (g, color) -> (
          match Heap.alloc heap ~size:(16 * g) ~n_slots:0 ~color with
          | Some a -> objs := Array.append !objs [| a |]
          | None -> ())
      | Free i -> (
          match nth i with
          | Some a when Heap.is_object heap a && not (Color.equal (Heap.color heap a) Color.Blue) ->
              Heap.free heap a;
              ignore (Heap.merge_free_prev heap a : int)
          | _ -> ())
      | Reserve g -> ignore (Heap.reserve heap ~size:(16 * g) : int)
      | Recolor (i, c) -> (
          match nth i with
          | Some a when Heap.is_object heap a && not (Color.equal (Heap.color heap a) Color.Blue) ->
              Heap.set_color heap a c
          | _ -> ()))
    ops;
  heap

(* As a concurrent cache refill does between two census strides: split
   the first free block at or after the cursor and reserve its first
   granule (kind Allocated, colour Blue).  The block at the cursor is a
   candidate, so a walk that re-read its cursor's block after the split
   would skip the reserved part. *)
let reserve_ahead heap cursor =
  let space = Heap.space heap in
  let rec find a =
    if Space.kind_of space a = Space.Free && Space.block_size space a >= 32
    then Some a
    else Option.bind (Space.next_block space a) find
  in
  match find cursor with
  | None -> ()
  | Some a ->
      ignore (Space.split space a ~first_bytes:16 : int);
      Space.set_kind space a Space.Allocated;
      Heap.set_color heap a Color.Blue

(* The collector's census loop, with [between] run between strides. *)
let strided_census heap c ~stride ~between =
  let tally = { Space.blocks = 0; bytes = 0 } in
  let cursor = ref 0 in
  while !cursor <> Heap.nil do
    cursor := Heap.color_census heap c tally ~from:!cursor ~stride;
    if !cursor <> Heap.nil then between !cursor
  done;
  (tally.Space.blocks, tally.Space.bytes)

let prop_color_census_matches_fold =
  QCheck.Test.make ~name:"colour census equals the iter_objects/color fold"
    ~count:300
    (QCheck.make ~print:print_heap_ops gen_heap_ops)
    (fun ops ->
      let heap = run_heap_ops ops in
      List.iter
        (fun (what, between) ->
          List.iter
            (fun stride ->
              List.iter
                (fun c ->
                  let kn, kb = strided_census heap c ~stride ~between in
                  let n = ref 0 and bytes = ref 0 in
                  Heap.iter_objects heap (fun x ->
                      if Color.equal (Heap.color heap x) c then begin
                        incr n;
                        bytes := !bytes + Heap.size heap x
                      end);
                  if (kn, kb) <> (!n, !bytes) then
                    QCheck.Test.fail_reportf
                      "%s, stride %d, %s: kernel (%d, %d), fold (%d, %d)" what
                      stride (Color.to_string c) kn kb !n !bytes)
                [ Color.Blue; Color.C0; Color.C1; Color.Gray; Color.Black ])
            [ 1; 7; Collector.census_stride ])
        [ ("still", ignore); ("refilled", reserve_ahead heap) ];
      (match Space.check (Heap.space heap) with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "space after the splits: %s" e);
      true)

(* A root the bitmap cannot index must be reported, never raise. *)
let test_oracle_dangling_roots () =
  let bytes = 4096 in
  let mk root =
    let heap =
      Heap.create { Heap.initial_bytes = bytes; max_bytes = bytes; card_size = 16 }
    in
    let st = State.create heap (Gc_config.generational ()) in
    let m = Mutator.create ~id:0 ~name:"m" ~n_regs:2 st.State.ledger in
    State.register_mutator st m;
    let a = Option.get (Heap.alloc heap ~size:32 ~n_slots:1 ~color:Color.C0) in
    Mutator.set_reg m 0 a;
    Mutator.set_reg m 1 (root heap);
    (st, a)
  in
  let cases =
    [
      ("out of range", fun heap -> Heap.capacity heap + 16);
      ("unaligned", fun _ -> 17);
      ( "freed block",
        fun heap ->
          let b = Option.get (Heap.alloc heap ~size:32 ~n_slots:0 ~color:Color.C0) in
          Heap.free heap b;
          b );
    ]
  in
  List.iter
    (fun (name, root) ->
      let st, a = mk root in
      check (name ^ ": unsafe") true
        (match Oracle.check_safety st with Ok () -> false | Error _ -> true);
      check_int (name ^ ": live objects") 1 (Oracle.live_count st);
      check (name ^ ": a is live") false (List.mem a (Oracle.garbage st)))
    cases

let suites =
  [
    ( "core.status",
      [
        Alcotest.test_case "cycle" `Quick test_status_cycle;
        Alcotest.test_case "equal" `Quick test_status_equal;
      ] );
    ( "core.gray_queue",
      [
        Alcotest.test_case "lifo" `Quick test_gray_queue_lifo;
        Alcotest.test_case "high water" `Quick test_gray_queue_high_water;
      ] );
    ( "core.cost",
      [
        Alcotest.test_case "ledger" `Quick test_cost_ledger;
        Alcotest.test_case "constants sane" `Quick test_cost_constants_sane;
      ] );
    ( "core.gc_stats",
      [
        Alcotest.test_case "aggregation" `Quick test_gc_stats_aggregation;
        Alcotest.test_case "begun and completed counters" `Quick
          test_gc_stats_begun_and_completed;
        Alcotest.test_case "incomplete ignored" `Quick
          test_gc_stats_incomplete_cycle_ignored;
      ] );
    ( "core.card_cache",
      [
        Alcotest.test_case "hits and misses" `Quick test_card_cache_hits_and_misses;
        Alcotest.test_case "eviction" `Quick test_card_cache_eviction;
        Alcotest.test_case "validation" `Quick test_card_cache_validation;
      ] );
    ("core.gc_config", [ Alcotest.test_case "config" `Quick test_gc_config ]);
    ( "core.mutator",
      [
        Alcotest.test_case "registers and stack" `Quick
          test_mutator_registers_and_stack;
        Alcotest.test_case "stack growth" `Quick test_mutator_stack_growth;
        Alcotest.test_case "retire" `Quick test_mutator_retire;
      ] );
    ( "core.oracle",
      [
        Alcotest.test_case "reachability" `Quick test_oracle_reachability;
        Alcotest.test_case "dangling roots" `Quick test_oracle_dangling_roots;
        QCheck_alcotest.to_alcotest prop_oracle_matches_reference;
        QCheck_alcotest.to_alcotest prop_floating_matches_garbage_fold;
        Alcotest.test_case "floating across heap growth" `Quick
          test_marks_across_growth;
        Alcotest.test_case "floating refuses a parallel state" `Quick
          test_floating_refuses_parallel;
        Alcotest.test_case "census kernels allocate a constant" `Quick
          test_census_kernels_allocate_constant;
        QCheck_alcotest.to_alcotest prop_color_census_matches_fold;
      ] );
  ]
