(* Property tests: random mutator programs under random fine-grained
   schedules, for all three collector modes.

   Properties checked:
   - safety: at no observed instant is a reachable object freed (a checker
     daemon snapshots reachability every few scheduling steps, and slot
     integrity is verified at the end);
   - completeness: after quiescence, two full collections reclaim every
     unreachable object;
   - structural invariants of the heap hold throughout. *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Sched = Otfgc_sched.Sched
module Rng = Otfgc_support.Rng

let kb = 1024

(* One random mutator op.  All references live in mutator registers, per
   the rooting contract. *)
let random_op rng rt m =
  let n_regs = Mutator.n_regs m in
  let reg () = Rng.int rng n_regs in
  match Rng.int rng 100 with
  | n when n < 35 ->
      (* allocate into a register *)
      let n_slots = Rng.int_in rng 0 4 in
      let size = 16 + (8 * n_slots) + (16 * Rng.int rng 4) in
      let a = Runtime.alloc rt m ~size ~n_slots in
      Mutator.set_reg m (reg ()) a
  | n when n < 65 ->
      (* store reg -> reg (or nil) through the barrier *)
      let x = Mutator.get_reg m (reg ()) in
      if x <> Heap.nil && Heap.n_slots (Runtime.heap rt) x > 0 then begin
        let i = Rng.int rng (Heap.n_slots (Runtime.heap rt) x) in
        let y = if Rng.chance rng 0.2 then Heap.nil else Mutator.get_reg m (reg ()) in
        Runtime.store rt m ~x ~i ~y
      end
  | n when n < 80 ->
      (* load a slot into a register *)
      let x = Mutator.get_reg m (reg ()) in
      if x <> Heap.nil && Heap.n_slots (Runtime.heap rt) x > 0 then begin
        let i = Rng.int rng (Heap.n_slots (Runtime.heap rt) x) in
        let v = Runtime.load rt m ~x ~i in
        Mutator.set_reg m (reg ()) v
      end
  | n when n < 88 ->
      (* drop a root *)
      Mutator.clear_reg m (reg ())
  | n when n < 94 ->
      (* push/pop the stack *)
      if Rng.bool rng && Mutator.stack_depth m < 32 then
        Mutator.push m (Mutator.get_reg m (reg ()))
      else if Mutator.stack_depth m > 0 then
        Mutator.set_reg m (reg ()) (Mutator.pop m)
  | _ -> Runtime.work rt m (Rng.int_in rng 1 5)

let run_random_program ~mode ~seed ~n_mutators ~ops_per_mutator =
  let heap_config =
    { Heap.initial_bytes = 8 * kb; max_bytes = 32 * kb; card_size = 16 }
  in
  let gc_config =
    match mode with
    | `Gen -> Gc_config.generational ~young_bytes:(2 * kb) ()
    | `NonGen -> Gc_config.non_generational
    | `Aging -> Gc_config.aging ~young_bytes:(2 * kb) ~oldest_age:3 ()
    | `Remset ->
        Gc_config.generational ~young_bytes:(2 * kb)
          ~intergen:Gc_config.Remembered_set ()
    | `Adaptive -> Gc_config.adaptive ~young_bytes:(2 * kb) ()
  in
  let rt = Runtime.create ~heap_config ~gc_config () in
  let master = Rng.make seed in
  let sched = Sched.create ~policy:(Sched.random_policy (Rng.split master)) () in
  ignore (Runtime.spawn_collector rt sched);
  let safety_violation = ref None in
  (* Checker daemon: every ~64 steps take an instantaneous reachability
     snapshot and verify no reachable address has been freed. *)
  ignore
    (Sched.spawn sched ~daemon:true ~name:"checker" (fun () ->
         while true do
           for _ = 1 to 64 do
             Sched.yield ()
           done;
           (match Oracle.check_safety (Runtime.state rt) with
           | Ok () -> ()
           | Error e -> if !safety_violation = None then safety_violation := Some e);
           (* The card/remset invariant can be asserted at ANY
              between-cycles instant for the simple-promotion modes: their
              barriers publish the card mark / remset entry BEFORE the
              store, so there is no transient window (the aging barrier
              marks after the store, per Figure 4, so it is excluded). *)
           (match mode with
           | (`Gen | `Remset)
             when not (Atomic.get (Runtime.state rt).State.collecting) -> (
               match Oracle.check_intergen_invariant (Runtime.state rt) with
               | Ok () -> ()
               | Error e ->
                   if !safety_violation = None then safety_violation := Some e)
           | _ -> ());
           (* structural check only — an unreachable object may point at
              freed memory mid-run, which is harmless *)
           match Heap.check ~check_slots:false (Runtime.heap rt) with
           | Ok () -> ()
           | Error e -> if !safety_violation = None then safety_violation := Some e
         done));
  let mutators =
    List.init n_mutators (fun i ->
        Runtime.new_mutator rt ~name:(Printf.sprintf "m%d" i) ())
  in
  let last = List.nth mutators (n_mutators - 1) in
  let completeness = ref None in
  List.iteri
    (fun i m ->
      let rng = Rng.split master in
      ignore
        (Sched.spawn sched ~name:(Printf.sprintf "m%d" i) (fun () ->
             for _ = 1 to ops_per_mutator do
               random_op rng rt m
             done;
             if Mutator.id m <> Mutator.id last then
               Runtime.retire_mutator rt m
             else begin
               (* the last mutator drives the completeness check: once the
                  others are gone and the world is quiescent, two full
                  collections must leave exactly the reachable objects *)
               (* keep cooperating while waiting: a handshake may need this
                  mutator while another one blocks on an exhausted heap
                  (an explicit loop: cooperate yields in fine-grained mode,
                  which a wait_until predicate must not) *)
               while
                 not
                   (Runtime.cooperate rt m;
                    List.for_all
                      (fun m' ->
                        Mutator.id m' = Mutator.id last || not (Mutator.active m'))
                      mutators)
               do
                 Sched.yield ()
               done;
               ignore (Runtime.collect_and_wait rt m ~full:true);
               ignore (Runtime.collect_and_wait rt m ~full:true);
               let live = Oracle.live_count (Runtime.state rt) in
               let remaining = Heap.object_count (Runtime.heap rt) in
               completeness := Some (live, remaining);
               (* quiescent point: the generational card/remset invariant
                  must hold exactly here *)
               (match Oracle.check_intergen_invariant (Runtime.state rt) with
               | Ok () -> ()
               | Error e ->
                   if !safety_violation = None then safety_violation := Some e);
               Runtime.retire_mutator rt m
             end)))
    mutators;
  Sched.run ~max_steps:80_000_000 sched;
  let st = Runtime.state rt in
  (match !safety_violation with
  | Some e -> Alcotest.failf "safety violated during run: %s" e
  | None -> ());
  (match Oracle.check_safety st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "safety violated at end: %s" e);
  (match Heap.check (Runtime.heap rt) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "heap invariants violated: %s" e);
  match !completeness with
  | None -> Alcotest.fail "completeness check never ran"
  | Some (live, remaining) ->
      if remaining <> live then
        Alcotest.failf
          "completeness: %d objects remain after quiescent full collections, \
           %d reachable"
          remaining live

let prop_safety_and_completeness mode name =
  QCheck.Test.make ~name ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      run_random_program ~mode ~seed ~n_mutators:2 ~ops_per_mutator:800;
      true)

let prop_gen = prop_safety_and_completeness `Gen "generational: random programs safe & complete"
let prop_nongen =
  prop_safety_and_completeness `NonGen "non-generational: random programs safe & complete"
let prop_aging =
  prop_safety_and_completeness `Aging "aging: random programs safe & complete"

let prop_remset =
  prop_safety_and_completeness `Remset
    "remembered sets: random programs safe & complete"

let prop_adaptive =
  prop_safety_and_completeness `Adaptive
    "adaptive tenuring: random programs safe & complete"

let prop_three_mutators =
  QCheck.Test.make ~name:"three mutators, heavier contention" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      run_random_program ~mode:`Gen ~seed:(seed + 77) ~n_mutators:3
        ~ops_per_mutator:500;
      true)

(* Differential check of the bitmap/array freelist against a direct port
   of the original list-based implementation (same validity rule, same
   candidate order: LIFO per exact class, ascending classes, first-fit
   from the newest entry in the large class), each driving its own
   identical space.  Every pop must return the same address under random
   alloc / free / behind-the-back coalesce / rebuild traffic — the
   byte-identical simulation figures depend on exactly this. *)
module Hspace = Otfgc_heap.Space
module Hlayout = Otfgc_heap.Layout
module Hfreelist = Otfgc_heap.Freelist

module Ref_freelist = struct
  let n_exact = 63
  let n_classes = n_exact + 1
  let class_of_granules gr = if gr <= n_exact then gr - 1 else n_exact

  type t = { space : Hspace.t; lists : int list array }

  let push_raw t addr =
    let cls =
      class_of_granules (Hspace.block_size t.space addr / Hlayout.granule)
    in
    t.lists.(cls) <- addr :: t.lists.(cls)

  let create space =
    let t = { space; lists = Array.make n_classes [] } in
    Hspace.iter_blocks space (fun addr kind _size ->
        if kind = Hspace.Free then push_raw t addr);
    t

  let valid t cls addr =
    Hspace.is_block_start t.space addr
    && Hspace.kind_of t.space addr = Hspace.Free
    && class_of_granules (Hspace.block_size t.space addr / Hlayout.granule)
       = cls

  let rec pop_class t cls =
    match t.lists.(cls) with
    | [] -> None
    | addr :: rest ->
        t.lists.(cls) <- rest;
        if valid t cls addr then Some addr else pop_class t cls

  let pop_large t ~granules =
    let rec scan acc = function
      | [] ->
          t.lists.(n_exact) <- List.rev acc;
          None
      | addr :: rest ->
          if not (valid t n_exact addr) then scan acc rest
          else if
            Hspace.block_size t.space addr / Hlayout.granule >= granules
          then begin
            t.lists.(n_exact) <- List.rev_append acc rest;
            Some addr
          end
          else scan (addr :: acc) rest
    in
    scan [] t.lists.(n_exact)

  let pop t ~bytes_wanted =
    let want_g = Hlayout.granules_of_bytes (Stdlib.max 1 bytes_wanted) in
    let want_b = Hlayout.bytes_of_granules want_g in
    let exact = if want_g <= n_exact then pop_class t (want_g - 1) else None in
    match exact with
    | Some addr -> Some addr
    | None ->
        let found = ref None in
        let cls = ref (if want_g <= n_exact then want_g else n_exact) in
        while !found = None && !cls < n_exact do
          (match pop_class t !cls with
          | Some addr -> found := Some addr
          | None -> ());
          incr cls
        done;
        let found =
          match !found with
          | Some a -> Some a
          | None -> pop_large t ~granules:want_g
        in
        (match found with
        | None -> None
        | Some addr ->
            let have = Hspace.block_size t.space addr in
            if have > want_b then begin
              let rest = Hspace.split t.space addr ~first_bytes:want_b in
              push_raw t rest
            end;
            Some addr)

  let rebuild t =
    Array.fill t.lists 0 n_classes [];
    Hspace.iter_blocks t.space (fun addr kind _size ->
        if kind = Hspace.Free then push_raw t addr)

  let entry_count t =
    Array.fold_left (fun acc l -> acc + List.length l) 0 t.lists
end

let prop_freelist_differential =
  QCheck.Test.make ~name:"freelist matches list-based reference" ~count:80
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.make seed in
      let mk () =
        Hspace.create ~initial_bytes:(16 * kb) ~max_bytes:(16 * kb) ()
      in
      let sa = mk () and sb = mk () in
      let fl = Hfreelist.create sa in
      let rf = Ref_freelist.create sb in
      let pop fl ~bytes_wanted =
        match Hfreelist.pop fl ~bytes_wanted with -1 -> None | a -> Some a
      in
      let blocks_of_kind s kind =
        let acc = ref [] in
        Hspace.iter_blocks s (fun a k _ -> if k = kind then acc := a :: !acc);
        !acc
      in
      let ok = ref true in
      let fail msg = QCheck.Test.fail_reportf "%s (seed %d)" msg seed in
      for _ = 1 to 300 do
        if !ok then begin
          (match Rng.int rng 100 with
          | r when r < 45 ->
              (* alloc: sizes spanning exact classes and the large class *)
              let size =
                if Rng.bool rng then 16 * Rng.int_in rng 1 12
                else 16 * Rng.int_in rng 60 160
              in
              let a = pop fl ~bytes_wanted:size in
              let b = Ref_freelist.pop rf ~bytes_wanted:size in
              if a <> b then ok := fail "pop addresses diverge"
              else (
                match a with
                | Some addr ->
                    Hspace.set_kind sa addr Hspace.Allocated;
                    Hspace.set_kind sb addr Hspace.Allocated
                | None -> ())
          | r when r < 75 -> (
              (* free a random allocated block (push to both lists) *)
              match blocks_of_kind sa Hspace.Allocated with
              | [] -> ()
              | allocated ->
                  let addr =
                    List.nth allocated (Rng.int rng (List.length allocated))
                  in
                  Hspace.set_kind sa addr Hspace.Free;
                  Hspace.set_kind sb addr Hspace.Free;
                  Hfreelist.push fl addr;
                  Ref_freelist.push_raw rf addr)
          | r when r < 95 -> (
              (* coalesce behind the lists' backs, staling entries *)
              match blocks_of_kind sa Hspace.Free with
              | [] -> ()
              | free ->
                  let addr = List.nth free (Rng.int rng (List.length free)) in
                  let ma = Hspace.coalesce_with_next sa addr in
                  let mb = Hspace.coalesce_with_next sb addr in
                  if ma <> mb then ok := fail "spaces diverged")
          | _ ->
              Hfreelist.rebuild fl;
              Ref_freelist.rebuild rf);
          if !ok && Hfreelist.entry_count fl <> Ref_freelist.entry_count rf
          then ok := fail "entry counts diverge"
        end
      done;
      (* drain both to exhaustion: the full remaining candidate order must
         also agree *)
      let draining = ref !ok in
      while !draining do
        let a = pop fl ~bytes_wanted:16 in
        let b = Ref_freelist.pop rf ~bytes_wanted:16 in
        if a <> b then begin
          ok := fail "drain order diverges";
          draining := false
        end
        else
          match a with
          | Some addr ->
              Hspace.set_kind sa addr Hspace.Allocated;
              Hspace.set_kind sb addr Hspace.Allocated
          | None -> draining := false
      done;
      !ok)

(* Determinism of the whole simulator: same seed, same everything. *)
let test_determinism () =
  let snapshot seed =
    let heap_config =
      { Heap.initial_bytes = 8 * kb; max_bytes = 32 * kb; card_size = 16 }
    in
    let rt =
      Runtime.create ~heap_config
        ~gc_config:(Gc_config.generational ~young_bytes:(2 * kb) ())
        ()
    in
    let master = Rng.make seed in
    let sched = Sched.create ~policy:(Sched.random_policy (Rng.split master)) () in
    ignore (Runtime.spawn_collector rt sched);
    let m = Runtime.new_mutator rt ~name:"m" () in
    let rng = Rng.split master in
    ignore
      (Sched.spawn sched ~name:"m" (fun () ->
           for _ = 1 to 600 do
             random_op rng rt m
           done;
           Runtime.retire_mutator rt m));
    Sched.run sched;
    ( Heap.total_allocated_objects (Runtime.heap rt),
      Heap.allocated_bytes (Runtime.heap rt),
      Cost.elapsed_multi (Runtime.cost rt),
      List.length (Gc_stats.cycles (Runtime.stats rt)),
      Sched.steps sched )
  in
  let a = snapshot 123 and b = snapshot 123 in
  Alcotest.(check bool) "identical replay" true (a = b)

(* Regression: this seed once exposed a lost object in the aging collector —
   a young parent's pointer became inter-generational when the parent was
   promoted by the same cycle's sweep, after ClearCards (scanning only old
   objects, as Figure 6 literally says) had already cleared the card.  The
   fix keeps a card dirty whenever any object on it references a young
   object. *)
let test_aging_promotion_card_regression () =
  run_random_program ~mode:`Aging ~seed:3669 ~n_mutators:2 ~ops_per_mutator:800

(* Regressions: adaptive tenuring lost objects in two ways when the
   threshold rose mid-run.  (1) Figure 6's age-qualified "old" test
   skipped earlier promotions during the card scan — fixed by classifying
   old by color alone (black <=> promoted, whatever the threshold).
   (2) The sweep de-promoted earlier promotions (age+1 < new threshold),
   turning old->old edges into old->young edges on legitimately clean
   cards — fixed by making promotion monotone (age sentinel 255). *)
let test_adaptive_threshold_rise_regression () =
  List.iter
    (fun seed ->
      run_random_program ~mode:`Adaptive ~seed ~n_mutators:2
        ~ops_per_mutator:800)
    [ 486; 694; 3564; 5017; 5221; 8137 ]

let suites =
  [
    ( "props",
      [
        Alcotest.test_case "aging promotion/card regression" `Quick
          test_aging_promotion_card_regression;
        Alcotest.test_case "adaptive threshold-rise regression" `Quick
          test_adaptive_threshold_rise_regression;
        QCheck_alcotest.to_alcotest prop_gen;
        QCheck_alcotest.to_alcotest prop_nongen;
        QCheck_alcotest.to_alcotest prop_aging;
        QCheck_alcotest.to_alcotest prop_remset;
        QCheck_alcotest.to_alcotest prop_adaptive;
        QCheck_alcotest.to_alcotest prop_three_mutators;
        QCheck_alcotest.to_alcotest prop_freelist_differential;
        Alcotest.test_case "determinism" `Quick test_determinism;
      ] );
  ]
