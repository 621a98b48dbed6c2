(* Tests for the simulated heap substrate: layout arithmetic, the block
   space with boundary tags, segregated free lists with stale-entry
   tolerance, object allocation, card and age tables, page accounting. *)

open Otfgc_heap
module Rng = Otfgc_support.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let kb = 1024

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_layout_granules () =
  check_int "granule" 16 Layout.granule;
  check_int "round up" 2 (Layout.granules_of_bytes 17);
  check_int "exact" 1 (Layout.granules_of_bytes 16);
  check_int "bytes" 48 (Layout.bytes_of_granules 3);
  check_int "page" 1 (Layout.page_of_addr 4096);
  check_int "page 0" 0 (Layout.page_of_addr 4095)

let test_layout_tables_disjoint () =
  let t = Layout.make_tables ~max_heap_bytes:(64 * kb) ~card_size:16 in
  check "color table above heap" true (t.Layout.color_table_base >= 64 * kb);
  check "age above color" true (t.Layout.age_table_base > t.Layout.color_table_base);
  check "cards above age" true (t.Layout.card_table_base > t.Layout.age_table_base);
  check "span covers all" true (t.Layout.virtual_span > t.Layout.card_table_base)

let test_layout_entry_addrs () =
  let t = Layout.make_tables ~max_heap_bytes:(64 * kb) ~card_size:256 in
  check_int "color of granule 2" (t.Layout.color_table_base + 2)
    (Layout.color_entry_addr t 32);
  check_int "card of addr 512" (t.Layout.card_table_base + 2)
    (Layout.card_entry_addr t ~card_size:256 512)

let test_layout_bad_card_size () =
  check "rejects non-power-of-two" true
    (match Layout.make_tables ~max_heap_bytes:kb ~card_size:48 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Space                                                               *)
(* ------------------------------------------------------------------ *)

let mk_space ?(initial = 4 * kb) ?(max = 16 * kb) () =
  Space.create ~initial_bytes:initial ~max_bytes:max ()

let test_space_initial () =
  let s = mk_space () in
  check_int "capacity" (4 * kb) (Space.capacity s);
  check_int "max" (16 * kb) (Space.max_capacity s);
  check "one free block" true (Space.kind_of s 0 = Space.Free);
  check_int "block covers all" (4 * kb) (Space.block_size s 0);
  check_int "nothing allocated" 0 (Space.allocated_bytes s);
  check "invariants" true (Space.check s = Ok ())

let test_space_split_and_kinds () =
  let s = mk_space () in
  let rest = Space.split s 0 ~first_bytes:64 in
  check_int "rest addr" 64 rest;
  check_int "first size" 64 (Space.block_size s 0);
  check_int "rest size" (4 * kb - 64) (Space.block_size s rest);
  Space.set_kind s 0 Space.Allocated;
  check "allocated" true (Space.kind_of s 0 = Space.Allocated);
  check_int "accounting" 64 (Space.allocated_bytes s);
  check_int "free accounting" (4 * kb - 64) (Space.free_bytes s);
  check "invariants" true (Space.check s = Ok ())

let test_space_iteration () =
  let s = mk_space () in
  let rest = Space.split s 0 ~first_bytes:32 in
  let _rest2 = Space.split s rest ~first_bytes:48 in
  Space.set_kind s rest Space.Allocated;
  let blocks = ref [] in
  Space.iter_blocks s (fun a k sz -> blocks := (a, k, sz) :: !blocks);
  Alcotest.(check int) "three blocks" 3 (List.length !blocks);
  check "middle allocated" true
    (match List.rev !blocks with
    | [ (0, Space.Free, 32); (32, Space.Allocated, 48); (80, Space.Free, _) ] ->
        true
    | _ -> false)

let test_space_next_prev () =
  let s = mk_space () in
  let rest = Space.split s 0 ~first_bytes:32 in
  check "next of 0" true (Space.next_block s 0 = Some rest);
  check "prev of rest" true (Space.prev_block s rest = Some 0);
  check "prev of 0" true (Space.prev_block s 0 = None);
  check "next of last" true (Space.next_block s rest = None)

let test_space_coalesce () =
  let s = mk_space () in
  let b = Space.split s 0 ~first_bytes:32 in
  let _c = Space.split s b ~first_bytes:32 in
  check "merge" true (Space.coalesce_with_next s 0);
  check_int "merged size" 64 (Space.block_size s 0);
  check "merge rest" true (Space.coalesce_with_next s 0);
  check_int "all merged" (4 * kb) (Space.block_size s 0);
  check "no more merges" false (Space.coalesce_with_next s 0);
  check "invariants" true (Space.check s = Ok ())

let test_space_no_merge_with_allocated () =
  let s = mk_space () in
  let b = Space.split s 0 ~first_bytes:32 in
  Space.set_kind s b Space.Allocated;
  check "no merge into allocated" false (Space.coalesce_with_next s 0);
  check "invariants" true (Space.check s = Ok ())

let test_space_grow () =
  let s = mk_space ~initial:(4 * kb) ~max:(8 * kb) () in
  (match Space.grow s ~want_bytes:(2 * kb) with
  | Some (addr, size) ->
      check_int "grown at end" (4 * kb) addr;
      check_int "grown size" (2 * kb) size
  | None -> Alcotest.fail "grow failed");
  check_int "capacity" (6 * kb) (Space.capacity s);
  (* growth clamps at max *)
  (match Space.grow s ~want_bytes:(64 * kb) with
  | Some (_, size) -> check_int "clamped" (2 * kb) size
  | None -> Alcotest.fail "grow failed");
  check "at max now" true (Space.grow s ~want_bytes:16 = None);
  check "invariants" true (Space.check s = Ok ())

let test_space_find_block_start () =
  let s = mk_space () in
  let b = Space.split s 0 ~first_bytes:64 in
  check_int "interior resolves" 0 (Space.find_block_start s 40);
  check_int "start resolves" b (Space.find_block_start s b)

let test_space_single_granule_blocks () =
  let s = mk_space () in
  let rest = Space.split s 0 ~first_bytes:16 in
  check_int "one granule" 16 (Space.block_size s 0);
  let rest2 = Space.split s rest ~first_bytes:16 in
  check_int "second one granule" 16 (Space.block_size s rest);
  ignore rest2;
  check "prev over single" true (Space.prev_block s rest = Some 0);
  check "merge singles" true (Space.coalesce_with_next s 0);
  check_int "merged" 32 (Space.block_size s 0);
  check "invariants" true (Space.check s = Ok ())

(* Crossing map: iter_block_starts_on_card must list exactly the blocks
   whose header lies in the card's window, in address order, as splits,
   coalesces and growth move block boundaries around.  Space.check
   cross-validates the map against a from-scratch walk, so the trailing
   invariant checks below do real work. *)

let starts_on_card s card =
  let acc = ref [] in
  Space.iter_block_starts_on_card s card (fun a _k _sz -> acc := a :: !acc);
  List.rev !acc

let test_space_crossing_map_basic () =
  let s =
    Space.create ~card_size:128 ~initial_bytes:(4 * kb) ~max_bytes:(8 * kb) ()
  in
  Alcotest.(check (list int)) "one start" [ 0 ] (starts_on_card s 0);
  Alcotest.(check (list int)) "interior card empty" [] (starts_on_card s 1);
  let b = Space.split s 0 ~first_bytes:32 in
  let _c = Space.split s b ~first_bytes:32 in
  Alcotest.(check (list int)) "splits on card 0" [ 0; 32; 64 ] (starts_on_card s 0);
  check "merge" true (Space.coalesce_with_next s b);
  Alcotest.(check (list int)) "after coalesce" [ 0; 32 ] (starts_on_card s 0);
  check "merge again" true (Space.coalesce_with_next s 0);
  Alcotest.(check (list int)) "single start again" [ 0 ] (starts_on_card s 0);
  check "invariants (incl. crossing map)" true (Space.check s = Ok ())

let test_space_crossing_map_coalesce_across_cards () =
  let s =
    Space.create ~card_size:128 ~initial_bytes:(4 * kb) ~max_bytes:(4 * kb) ()
  in
  let b = Space.split s 0 ~first_bytes:128 in
  let _c = Space.split s b ~first_bytes:32 in
  Alcotest.(check (list int)) "card 1 starts" [ 128; 160 ] (starts_on_card s 1);
  (* merging [0,128) with [128,160) erases card 1's first start; the
     following block at 160 still starts on card 1 and must take over *)
  check "merge" true (Space.coalesce_with_next s 0);
  Alcotest.(check (list int)) "160 promoted" [ 160 ] (starts_on_card s 1);
  check "invariants" true (Space.check s = Ok ());
  (* merging across the rest of card 1: the following block would start
     past the card (indeed past the heap), so the card goes empty *)
  check "merge rest" true (Space.coalesce_with_next s 0);
  Alcotest.(check (list int)) "card 1 empty" [] (starts_on_card s 1);
  Alcotest.(check (list int)) "card 0 intact" [ 0 ] (starts_on_card s 0);
  check "invariants" true (Space.check s = Ok ())

let test_space_crossing_map_grow () =
  let s = Space.create ~card_size:128 ~initial_bytes:256 ~max_bytes:kb () in
  Alcotest.(check (list int)) "card 2 empty before grow" []
    (starts_on_card s 2);
  (match Space.grow s ~want_bytes:128 with
  | Some (addr, _) ->
      check_int "grown block addr" 256 addr;
      Alcotest.(check (list int)) "grown start recorded" [ 256 ]
        (starts_on_card s 2)
  | None -> Alcotest.fail "grow failed");
  check "invariants" true (Space.check s = Ok ())

(* ------------------------------------------------------------------ *)
(* Freelist                                                            *)
(* ------------------------------------------------------------------ *)

let test_freelist_exact_fit () =
  let s = mk_space () in
  let fl = Freelist.create s in
  match Freelist.pop fl ~bytes_wanted:64 with
  | -1 -> Alcotest.fail "no block"
  | addr ->
      check_int "block size granule-exact" 64 (Space.block_size s addr);
      check "still free until claimed" true (Space.kind_of s addr = Space.Free)

let test_freelist_split_remainder () =
  let s = mk_space () in
  let fl = Freelist.create s in
  (match Freelist.pop fl ~bytes_wanted:64 with
  | -1 -> Alcotest.fail "no block"
  | addr -> (
      Space.set_kind s addr Space.Allocated;
      (* remainder should be allocatable *)
      match Freelist.pop fl ~bytes_wanted:128 with
      | -1 -> Alcotest.fail "remainder lost"
      | addr2 -> check "disjoint" true (addr2 >= addr + 64 || addr2 + 128 <= addr)));
  check "invariants" true (Space.check s = Ok ())

let test_freelist_exhaustion () =
  let s = Space.create ~initial_bytes:64 ~max_bytes:64 () in
  let fl = Freelist.create s in
  (match Freelist.pop fl ~bytes_wanted:64 with
  | -1 -> Alcotest.fail "first alloc failed"
  | a -> Space.set_kind s a Space.Allocated);
  check "exhausted" true (Freelist.pop fl ~bytes_wanted:16 = -1)

let test_freelist_push_pop_roundtrip () =
  let s = Space.create ~initial_bytes:64 ~max_bytes:64 () in
  let fl = Freelist.create s in
  let a = Freelist.pop fl ~bytes_wanted:64 in
  Space.set_kind s a Space.Allocated;
  Space.set_kind s a Space.Free;
  Freelist.push fl a;
  check "pop returns pushed" true (Freelist.pop fl ~bytes_wanted:64 = a)

let test_freelist_stale_entries_skipped () =
  let s = mk_space () in
  let fl = Freelist.create s in
  let a = Freelist.pop fl ~bytes_wanted:32 in
  let b = Freelist.pop fl ~bytes_wanted:32 in
  check "adjacent" true (b = a + 32 || a = b + 32);
  (* push both as free, then coalesce behind the list's back *)
  Freelist.push fl a;
  Freelist.push fl b;
  let lo = Stdlib.min a b in
  check "merged" true (Space.coalesce_with_next s lo);
  (* the two 32-byte entries are stale; a 64-byte request must still be
     satisfiable via the merged block or the big remainder *)
  if Freelist.pop fl ~bytes_wanted:64 = -1 then
    Alcotest.fail "stale entries broke allocation";
  check "invariants" true (Space.check s = Ok ())

let test_freelist_large_class () =
  let s = Space.create ~initial_bytes:(64 * kb) ~max_bytes:(64 * kb) () in
  let fl = Freelist.create s in
  (* larger than the largest exact class (63 granules = 1008 B) *)
  match Freelist.pop fl ~bytes_wanted:(8 * kb) with
  | -1 -> Alcotest.fail "large allocation failed"
  | addr -> check_int "big block" (8 * kb) (Space.block_size s addr)

let test_freelist_class_of_bytes () =
  check_int "16 bytes -> class 0" 0 (Freelist.class_of_bytes 16);
  check_int "17 bytes -> class 1" 1 (Freelist.class_of_bytes 17);
  check_int "1008 bytes -> class 62" 62 (Freelist.class_of_bytes 1008);
  check_int "big -> large class" 63 (Freelist.class_of_bytes 4096)

let test_freelist_counters () =
  let s = mk_space () in
  let fl = Freelist.create s in
  check_int "seeded entries" 1 (Freelist.entry_count fl);
  check_int "no stale drops yet" 0 (Freelist.stale_entries fl);
  let a = Freelist.pop fl ~bytes_wanted:32 in
  Space.set_kind s a Space.Allocated;
  check_int "split remainder queued" 1 (Freelist.entry_count fl);
  let b = Freelist.pop fl ~bytes_wanted:32 in
  Space.set_kind s b Space.Allocated;
  check "adjacent" true (b = a + 32);
  Space.set_kind s a Space.Free;
  Space.set_kind s b Space.Free;
  Freelist.push fl a;
  Freelist.push fl b;
  check_int "entries count possibly-stale too" 3 (Freelist.entry_count fl);
  (* merge behind the list's back: b's entry stops being a block start
     and a's entry changes size class — both are now stale *)
  check "merged" true (Space.coalesce_with_next s a);
  check_int "counters are lazy" 3 (Freelist.entry_count fl);
  check_int "staleness discovered only on pop" 0 (Freelist.stale_entries fl);
  (match Freelist.pop fl ~bytes_wanted:32 with
  | -1 -> Alcotest.fail "pop failed"
  | addr -> Space.set_kind s addr Space.Allocated);
  check_int "both stale entries counted" 2 (Freelist.stale_entries fl);
  check_int "remaining entries" 1 (Freelist.entry_count fl);
  Freelist.rebuild fl;
  check_int "rebuild reseeds from space" 2 (Freelist.entry_count fl);
  check_int "stale count is cumulative" 2 (Freelist.stale_entries fl)

let prop_freelist_random_alloc_free =
  QCheck.Test.make ~name:"freelist/space random alloc-free keeps invariants"
    ~count:60
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.make seed in
      let s = Space.create ~initial_bytes:(8 * kb) ~max_bytes:(8 * kb) () in
      let fl = Freelist.create s in
      let live = ref [] in
      for _ = 1 to 200 do
        if Rng.bool rng || !live = [] then begin
          let size = 16 * Rng.int_in rng 1 8 in
          match Freelist.pop fl ~bytes_wanted:size with
          | -1 -> ()
          | a ->
              Space.set_kind s a Space.Allocated;
              live := a :: !live
        end
        else begin
          let n = Rng.int rng (List.length !live) in
          let a = List.nth !live n in
          live := List.filteri (fun i _ -> i <> n) !live;
          Space.set_kind s a Space.Free;
          Freelist.push fl a
        end
      done;
      Space.check s = Ok ())

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let mk_heap ?(initial = 16 * kb) ?(max = 64 * kb) ?(card = 16) () =
  Heap.create { Heap.initial_bytes = initial; max_bytes = max; card_size = card }

let test_heap_alloc_basic () =
  let h = mk_heap () in
  match Heap.alloc h ~size:48 ~n_slots:2 ~color:Color.C0 with
  | None -> Alcotest.fail "alloc failed"
  | Some a ->
      check "is object" true (Heap.is_object h a);
      check_int "size" 48 (Heap.size h a);
      check_int "slots" 2 (Heap.n_slots h a);
      check "color" true (Color.equal (Heap.color h a) Color.C0);
      check_int "age zero" 0 (Age_table.get (Heap.ages h) a);
      check_int "slot nil" Heap.nil (Heap.get_slot h a 0);
      check_int "accounting" 48 (Heap.allocated_bytes h);
      check_int "cumulative" 48 (Heap.total_allocated_bytes h);
      check_int "objects" 1 (Heap.total_allocated_objects h)

let test_heap_alloc_size_check () =
  let h = mk_heap () in
  check "slots need room" true
    (match Heap.alloc h ~size:16 ~n_slots:2 ~color:Color.C0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_heap_slots_roundtrip () =
  let h = mk_heap () in
  let a = Option.get (Heap.alloc h ~size:48 ~n_slots:2 ~color:Color.C0) in
  let b = Option.get (Heap.alloc h ~size:32 ~n_slots:1 ~color:Color.C0) in
  Heap.set_slot h a 0 b;
  Heap.set_slot h a 1 b;
  check_int "slot stored" b (Heap.get_slot h a 0);
  let seen = ref 0 in
  Heap.iter_slots h a (fun y ->
      incr seen;
      check_int "iter value" b y);
  check_int "iter count" 2 !seen;
  check "check ok" true (Heap.check h = Ok ())

let test_heap_free_recycles () =
  let h = mk_heap () in
  let a = Option.get (Heap.alloc h ~size:64 ~n_slots:0 ~color:Color.C0) in
  Heap.free h a;
  check "freed not object" false (Heap.is_object h a);
  check "blue" true (Color.equal (Heap.color h a) Color.Blue);
  check_int "accounting back to zero" 0 (Heap.allocated_bytes h);
  let b = Option.get (Heap.alloc h ~size:64 ~n_slots:0 ~color:Color.C1) in
  check_int "address reused" a b

let test_heap_free_validation () =
  let h = mk_heap () in
  check "free of non-object rejected" true
    (match Heap.free h 0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_heap_merge_free_prev () =
  let h = mk_heap ~initial:kb ~max:kb () in
  let a = Option.get (Heap.alloc h ~size:64 ~n_slots:0 ~color:Color.C0) in
  let b = Option.get (Heap.alloc h ~size:64 ~n_slots:0 ~color:Color.C0) in
  check "adjacent allocation" true (b = a + 64);
  Heap.free h a;
  Heap.free h b;
  let merged = Heap.merge_free_prev h b in
  check_int "merged into predecessor" a merged;
  check_int "merged size" 128 (Space.block_size (Heap.space h) a);
  check "check ok" true (Heap.check h = Ok ())

(* Every accessor validates the address and the index. *)
let test_heap_accessors_reject () =
  let h = mk_heap ~initial:kb ~max:kb () in
  let a = Option.get (Heap.alloc h ~size:64 ~n_slots:2 ~color:Color.C0) in
  let b = Option.get (Heap.alloc h ~size:64 ~n_slots:2 ~color:Color.C0) in
  let c = Option.get (Heap.alloc h ~size:48 ~n_slots:1 ~color:Color.C0) in
  Heap.free h a;
  Heap.free h b;
  check_int "b merged into a" a (Heap.merge_free_prev h b);
  let raises what f =
    check what true (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  List.iter
    (fun (where, x) ->
      raises ("n_slots, " ^ where) (fun () -> Heap.n_slots h x);
      raises ("get_slot, " ^ where) (fun () -> Heap.get_slot h x 0);
      raises ("set_slot, " ^ where) (fun () -> Heap.set_slot h x 0 Heap.nil);
      raises ("n_data, " ^ where) (fun () -> Heap.n_data h x);
      raises ("get_data, " ^ where) (fun () -> Heap.get_data h x 0);
      raises ("set_data, " ^ where) (fun () -> Heap.set_data h x 0 0);
      raises ("iter_slots, " ^ where) (fun () -> Heap.iter_slots h x ignore))
    [ ("freed start", a); ("merged interior", b); ("unaligned", c + 8) ];
  check_int "c has one slot" 1 (Heap.n_slots h c);
  check_int "c has three data words" 3 (Heap.n_data h c);
  List.iter
    (fun i ->
      let where = Printf.sprintf "index %d" i in
      raises ("get_slot, " ^ where) (fun () -> Heap.get_slot h c i);
      raises ("set_slot, " ^ where) (fun () -> Heap.set_slot h c i Heap.nil))
    [ -1; 1 ];
  List.iter
    (fun i ->
      let where = Printf.sprintf "index %d" i in
      raises ("get_data, " ^ where) (fun () -> Heap.get_data h c i);
      raises ("set_data, " ^ where) (fun () -> Heap.set_data h c i 0))
    [ -1; 3 ];
  check "check ok" true (Heap.check h = Ok ())

(* The object store before the flat word array: a pointer-slot array and
   a scalar-word array per start granule, empty when the granule starts
   no object.  Block structure and free lists are the real ones. *)
module Old_heap = struct
  type t = {
    space : Space.t;
    freelist : Freelist.t;
    slots : int array array;
    datas : int array array;
  }

  let gi = Layout.granule_index

  let create ~initial ~max =
    let space = Space.create ~card_size:16 ~initial_bytes:initial ~max_bytes:max () in
    let n = Layout.granules_of_bytes max in
    {
      space;
      freelist = Freelist.create space;
      slots = Array.make n [||];
      datas = Array.make n [||];
    }

  let lay_out t addr ~n_slots =
    t.slots.(gi addr) <- Array.make n_slots Heap.nil;
    let real = Space.block_size t.space addr in
    t.datas.(gi addr) <- Array.make ((real - 16 - (8 * n_slots)) / 8) 0

  let reserve t ~size =
    match Freelist.pop t.freelist ~bytes_wanted:size with
    | -1 -> None
    | addr ->
        Space.set_kind t.space addr Space.Allocated;
        Some addr

  let alloc t ~size ~n_slots =
    let r = reserve t ~size in
    Option.iter (fun addr -> lay_out t addr ~n_slots) r;
    r

  let issue t addr ~n_slots = lay_out t addr ~n_slots

  let free t addr =
    t.slots.(gi addr) <- [||];
    t.datas.(gi addr) <- [||];
    Space.set_kind t.space addr Space.Free;
    Freelist.push t.freelist addr

  let merge_free_prev t addr =
    match Space.prev_block t.space addr with
    | Some p when Space.kind_of t.space p = Space.Free ->
        ignore (Space.coalesce_with_next t.space p : bool);
        Freelist.push t.freelist p;
        p
    | _ -> addr

  let grow t ~want_bytes =
    match Space.grow t.space ~want_bytes with
    | None -> false
    | Some (addr, _) ->
        Freelist.push t.freelist addr;
        true

  let n_slots t x = Array.length t.slots.(gi x)
  let get_slot t x i = t.slots.(gi x).(i)
  let set_slot t x i y = t.slots.(gi x).(i) <- y
  let n_data t x = Array.length t.datas.(gi x)
  let get_data t x i = t.datas.(gi x).(i)
  let set_data t x i v = t.datas.(gi x).(i) <- v

  let iter_slots t x f =
    Array.iter (fun y -> if y <> Heap.nil then f y) t.slots.(gi x)
end

type heap_op =
  | H_alloc of int * int  (** granules, slot choice *)
  | H_free of int
  | H_merge of int
  | H_grow of int
  | H_set_slot of int * int * int  (** object, index, value choice *)
  | H_set_data of int * int * int
  | H_reserve of int
  | H_issue of int * int

let gen_heap_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map2 (fun g s -> H_alloc (g, s)) (int_range 1 16) nat);
        (3, map (fun k -> H_free k) nat);
        (2, map (fun k -> H_merge k) nat);
        (1, map (fun k -> H_grow k) (int_range 1 4));
        (4, map3 (fun k i v -> H_set_slot (k, i, v)) nat (int_range (-1) 8) nat);
        (3, map3 (fun k i v -> H_set_data (k, i, v)) nat (int_range (-1) 30) int);
        (1, map (fun g -> H_reserve g) (int_range 1 16));
        (1, map2 (fun k s -> H_issue (k, s)) nat nat);
      ]
  in
  list_size (int_range 1 120) op

let print_heap_op = function
  | H_alloc (g, s) -> Printf.sprintf "alloc %d/%d" g s
  | H_free k -> Printf.sprintf "free %d" k
  | H_merge k -> Printf.sprintf "merge %d" k
  | H_grow k -> Printf.sprintf "grow %dK" k
  | H_set_slot (k, i, v) -> Printf.sprintf "set_slot %d.%d=%d" k i v
  | H_set_data (k, i, v) -> Printf.sprintf "set_data %d.%d=%d" k i v
  | H_reserve g -> Printf.sprintf "reserve %d" g
  | H_issue (k, s) -> Printf.sprintf "issue %d/%d" k s

(* The same operations on the flat heap and on [Old_heap]; after each
   one, every read of every object, and the rejection of every freed
   address, must agree. *)
let prop_heap_matches_old_model =
  QCheck.Test.make ~name:"flat object memory reads as the array-of-arrays heap"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_heap_op) gen_heap_ops)
    (fun ops ->
      let h = mk_heap ~initial:(4 * kb) ~max:(16 * kb) () in
      let o = Old_heap.create ~initial:(4 * kb) ~max:(16 * kb) in
      let live = ref [] and reserved = ref [] and freed = ref [] in
      let ok = ref true in
      let same a b = if a <> b then ok := false in
      let nth l k = List.nth l (k mod List.length l) in
      let attempt f = match f () with v -> Some v | exception Invalid_argument _ -> None in
      let read_all () =
        List.iter
          (fun x ->
            same (Heap.n_slots h x) (Old_heap.n_slots o x);
            same (Heap.n_data h x) (Old_heap.n_data o x);
            for i = 0 to Heap.n_slots h x - 1 do
              same (Heap.get_slot h x i) (Old_heap.get_slot o x i)
            done;
            for i = 0 to Heap.n_data h x - 1 do
              same (Heap.get_data h x i) (Old_heap.get_data o x i)
            done;
            let seen heap_iter =
              let acc = ref [] in
              heap_iter (fun y -> acc := y :: !acc);
              !acc
            in
            same (seen (Heap.iter_slots h x)) (seen (Old_heap.iter_slots o x)))
          (!live @ !reserved);
        List.iter
          (fun x ->
            if not (List.mem x !live || List.mem x !reserved) then begin
              same (attempt (fun () -> Heap.get_slot h x 0)) None;
              same (attempt (fun () -> Old_heap.get_slot o x 0)) None;
              same (attempt (fun () -> Heap.get_data h x 0)) None;
              same (attempt (fun () -> Old_heap.get_data o x 0)) None
            end)
          !freed
      in
      let slots_for size s = s mod (((size - 16) / 8) + 1) in
      List.iter
        (fun op ->
          (match op with
          | H_alloc (g, s) ->
              let size = 16 * g in
              let n_slots = slots_for size s in
              let r = Heap.alloc h ~size ~n_slots ~color:Color.C0 in
              same r (Old_heap.alloc o ~size ~n_slots);
              Option.iter (fun a -> live := a :: !live) r
          | H_free k when !live <> [] ->
              let x = nth !live k in
              Heap.free h x;
              Old_heap.free o x;
              live := List.filter (( <> ) x) !live;
              freed := x :: !freed
          | H_merge k ->
              let s = Heap.space h in
              let free_starts =
                List.filter
                  (fun x -> Space.is_block_start s x && Space.kind_of s x = Space.Free)
                  !freed
              in
              if free_starts <> [] then begin
                let x = nth free_starts k in
                same (Heap.merge_free_prev h x) (Old_heap.merge_free_prev o x)
              end
          | H_grow k ->
              same (Heap.grow h ~want_bytes:(k * kb)) (Old_heap.grow o ~want_bytes:(k * kb))
          | H_set_slot (k, i, v) when !live <> [] ->
              let x = nth !live k in
              let y = if v mod 4 = 0 then Heap.nil else nth !live v in
              same
                (attempt (fun () -> Heap.set_slot h x i y))
                (attempt (fun () -> Old_heap.set_slot o x i y))
          | H_set_data (k, i, v) when !live <> [] ->
              let x = nth !live k in
              same
                (attempt (fun () -> Heap.set_data h x i v))
                (attempt (fun () -> Old_heap.set_data o x i v))
          | H_reserve g ->
              let r = Heap.reserve h ~size:(16 * g) in
              let r = if r = Heap.nil then None else Some r in
              same r (Old_heap.reserve o ~size:(16 * g));
              Option.iter (fun a -> reserved := a :: !reserved) r
          | H_issue (k, s) when !reserved <> [] ->
              let x = nth !reserved k in
              let n_slots = slots_for (Heap.size h x) s in
              ignore (Heap.issue h x ~n_slots ~color:Color.C0 : int);
              Old_heap.issue o x ~n_slots;
              reserved := List.filter (( <> ) x) !reserved;
              live := x :: !live
          | H_free _ | H_set_slot _ | H_set_data _ | H_issue _ -> ());
          read_all ())
        ops;
      (* reserved blocks are blue, which [Heap.check] rejects *)
      !ok && (!reserved <> [] || Heap.check ~check_slots:false h = Ok ()))

(* [Heap.merge_free_prev] is the sweep's option-free merge kernel, and
   [Heap.free] pushes through the same unchecked [Freelist.unsafe_push].
   [Old_heap] is the reference: the checked path they replaced, on a
   space and free lists of its own ([Space.prev_block],
   [Space.coalesce_with_next], [Freelist.push]).  Every push must match,
   the ones that go stale included, since a stale entry can turn valid
   again and the order of entries decides what later pops return. *)
type merge_op = M_alloc of int | M_free of int | M_merge of int | M_grow of int

let gen_merge_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (* up to 80 granules, so the large class takes part *)
        (5, map (fun g -> M_alloc g) (int_range 1 80));
        (4, map (fun k -> M_free k) nat);
        (4, map (fun k -> M_merge k) nat);
        (1, map (fun k -> M_grow k) (int_range 1 4));
      ]
  in
  list_size (int_range 1 150) op

let print_merge_op = function
  | M_alloc g -> Printf.sprintf "alloc %d" g
  | M_free k -> Printf.sprintf "free %d" k
  | M_merge k -> Printf.sprintf "merge %d" k
  | M_grow k -> Printf.sprintf "grow %dK" k

(* Everything of a space and its free lists that a merge can change. *)
let space_view space fl =
  let blocks = ref [] in
  Space.iter_blocks space (fun a k sz -> blocks := (a, k, sz) :: !blocks);
  let n_cards = Space.max_capacity space / 16 in
  let cards =
    List.init n_cards (fun c ->
        let starts = ref [] in
        Space.iter_block_starts_on_card space c (fun a _ _ -> starts := a :: !starts);
        !starts)
  in
  (Space.check space, !blocks, cards, Freelist.entry_count fl, Freelist.stale_entries fl)

let prop_merge_kernel_matches_reference =
  QCheck.Test.make ~name:"merge kernel pushes what the checked merge pushes"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_merge_op) gen_merge_ops)
    (fun ops ->
      let h = mk_heap ~initial:(4 * kb) ~max:(16 * kb) () in
      let o = Old_heap.create ~initial:(4 * kb) ~max:(16 * kb) in
      let live = ref [] and freed = ref [] in
      let ok = ref true in
      let same a b = if a <> b then ok := false in
      let nth l k = List.nth l (k mod List.length l) in
      let agree () =
        same
          (space_view (Heap.space h) (Heap.freelist h))
          (space_view o.Old_heap.space o.Old_heap.freelist)
      in
      List.iter
        (fun op ->
          (match op with
          | M_alloc g ->
              let size = 16 * g in
              let a = Heap.alloc h ~size ~n_slots:0 ~color:Color.C0 in
              same a (Old_heap.alloc o ~size ~n_slots:0);
              Option.iter (fun a -> live := a :: !live) a
          | M_free k when !live <> [] ->
              let x = nth !live k in
              Heap.free h x;
              Old_heap.free o x;
              live := List.filter (( <> ) x) !live;
              freed := x :: !freed
          | M_merge k ->
              let s = Heap.space h in
              let free_starts =
                List.filter
                  (fun x -> Space.is_block_start s x && Space.kind_of s x = Space.Free)
                  !freed
              in
              if free_starts <> [] then begin
                let x = nth free_starts k in
                same (Heap.merge_free_prev h x) (Old_heap.merge_free_prev o x)
              end
          | M_grow k ->
              same (Heap.grow h ~want_bytes:(k * kb)) (Old_heap.grow o ~want_bytes:(k * kb))
          | M_free _ -> ());
          agree ())
        ops;
      (* drain both free lists: the same blocks, in the same order *)
      let rec pops acc sizes pop =
        match sizes with
        | [] -> List.rev acc
        | size :: rest -> (
            match pop size with
            | None -> pops acc rest pop
            | Some a -> pops (a :: acc) sizes pop)
      in
      let sizes = [ 48; 16; 1024; 160; 32 ] in
      same
        (pops [] sizes (fun size -> Heap.alloc h ~size ~n_slots:0 ~color:Color.C0))
        (pops [] sizes (fun size -> Old_heap.alloc o ~size ~n_slots:0));
      agree ();
      !ok && Space.check (Heap.space h) = Ok ())

(* Allocating, storing and freeing in a warm heap allocates nothing on
   the host, however many rounds run. *)
let test_heap_rounds_allocate_nothing () =
  let h = mk_heap () in
  let rounds n =
    for _ = 1 to n do
      match Heap.alloc h ~size:32 ~n_slots:2 ~color:Color.C0 with
      | None -> Alcotest.fail "alloc failed"
      | Some a ->
          Heap.set_slot h a 0 a;
          Heap.free h a
    done
  in
  rounds 10;
  let words n =
    let w0 = Gc.minor_words () in
    rounds n;
    Gc.minor_words () -. w0
  in
  let small = words 100 in
  let large = words 10_000 in
  check (Printf.sprintf "10^4 rounds allocate %.0f words" large) true (large < 256.);
  check "no growth with the round count" true (large <= small +. 64.)

let test_heap_grow () =
  let h = mk_heap ~initial:kb ~max:(2 * kb) () in
  check_int "initial cap" kb (Heap.capacity h);
  check "grows" true (Heap.grow h ~want_bytes:kb);
  check_int "grown" (2 * kb) (Heap.capacity h);
  check "cannot grow past max" false (Heap.grow h ~want_bytes:kb);
  (* new space is allocatable *)
  check "new space usable" true
    (Heap.alloc h ~size:(2 * kb - 32) ~n_slots:0 ~color:Color.C0 <> None
    || Heap.alloc h ~size:kb ~n_slots:0 ~color:Color.C0 <> None)

let test_heap_grow_no_merge_with_trailing_free () =
  (* Heap.grow must never merge the grown block into a trailing free
     block: sweep's cursor may sit on that block, and merging would move
     a block boundary ahead of the cursor.  Regression test for the
     comment in Heap.grow that used to claim the opposite. *)
  let h = mk_heap ~initial:kb ~max:(2 * kb) () in
  let a = Option.get (Heap.alloc h ~size:(kb - 64) ~n_slots:0 ~color:Color.C0) in
  let s = Heap.space h in
  let tail = a + (kb - 64) in
  check "trailing block free" true (Space.kind_of s tail = Space.Free);
  check_int "trailing size" 64 (Space.block_size s tail);
  check "grows" true (Heap.grow h ~want_bytes:kb);
  (* still two separate free blocks *)
  check_int "trailing block kept its size" 64 (Space.block_size s tail);
  check "grown block is its own block" true (Space.is_block_start s kb);
  check_int "grown block size" kb (Space.block_size s kb);
  (* both reach the free lists: the exact-fit pop takes the old tail, the
     large pop takes the grown block *)
  let b = Option.get (Heap.alloc h ~size:64 ~n_slots:0 ~color:Color.C0) in
  check_int "tail allocated" tail b;
  let c = Option.get (Heap.alloc h ~size:kb ~n_slots:0 ~color:Color.C0) in
  check_int "grown block allocated" kb c;
  check "check ok" true (Heap.check h = Ok ())

let test_heap_exhaustion_returns_none () =
  let h = mk_heap ~initial:128 ~max:128 () in
  let _a = Option.get (Heap.alloc h ~size:128 ~n_slots:0 ~color:Color.C0) in
  check "exhausted" true (Heap.alloc h ~size:16 ~n_slots:0 ~color:Color.C0 = None)

let test_heap_objects_on_card () =
  let h = mk_heap ~card:64 () in
  let a = Option.get (Heap.alloc h ~size:16 ~n_slots:0 ~color:Color.C0) in
  let b = Option.get (Heap.alloc h ~size:16 ~n_slots:0 ~color:Color.C0) in
  let c = Option.get (Heap.alloc h ~size:64 ~n_slots:0 ~color:Color.C0) in
  (* a, b and two granules of padding fill card 0; c starts on card 1 *)
  let d = Option.get (Heap.alloc h ~size:16 ~n_slots:0 ~color:Color.C0) in
  ignore d;
  let card0 = Card_table.card_of_addr (Heap.cards h) a in
  let objs = Heap.objects_on_card h card0 in
  check "a on card" true (List.mem a objs);
  check "b on card" true (List.mem b objs);
  check "c not on card 0" true
    (Card_table.card_of_addr (Heap.cards h) c <> card0 || List.mem c objs)

let test_heap_iter_objects_on_card_agrees () =
  (* iter_objects_on_card (crossing-map driven) against an independent
     reference: filter the full object walk by the card's byte bounds. *)
  let h = mk_heap ~initial:(8 * kb) ~max:(8 * kb) ~card:256 () in
  let objs = ref [] in
  for i = 0 to 40 do
    let size = 16 * (1 + (i mod 5)) in
    match Heap.alloc h ~size ~n_slots:0 ~color:Color.C0 with
    | Some a -> objs := a :: !objs
    | None -> Alcotest.fail "alloc failed"
  done;
  (* punch holes so cards mix allocated blocks, free blocks and interior
     granules *)
  List.iteri (fun i a -> if i mod 3 = 0 then Heap.free h a) (List.rev !objs);
  let cards = Heap.cards h in
  let scratch = ref [||] in
  for card = 0 to Card_table.n_cards cards - 1 do
    let lo, hi = Card_table.card_bounds cards card in
    let expected = ref [] in
    Heap.iter_objects h (fun x ->
        if x >= lo && x < hi then expected := x :: !expected);
    let seen = ref [] in
    Heap.iter_objects_on_card h ~scratch card (fun x -> seen := x :: !seen);
    Alcotest.(check (list int))
      (Printf.sprintf "card %d" card)
      (List.rev !expected) (List.rev !seen);
    Alcotest.(check (list int))
      (Printf.sprintf "card %d list" card)
      (List.rev !expected)
      (Heap.objects_on_card h card)
  done

let test_heap_iter_objects_order () =
  let h = mk_heap () in
  let a = Option.get (Heap.alloc h ~size:32 ~n_slots:0 ~color:Color.C0) in
  let b = Option.get (Heap.alloc h ~size:32 ~n_slots:0 ~color:Color.C0) in
  let seen = ref [] in
  Heap.iter_objects h (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "address order" [ a; b ] (List.rev !seen);
  check_int "object count" 2 (Heap.object_count h)

let test_heap_check_detects_dangling () =
  let h = mk_heap () in
  let a = Option.get (Heap.alloc h ~size:32 ~n_slots:1 ~color:Color.C0) in
  let b = Option.get (Heap.alloc h ~size:32 ~n_slots:0 ~color:Color.C0) in
  Heap.set_slot h a 0 b;
  Heap.free h b;
  check "dangling caught" true (Heap.check h <> Ok ())

(* ------------------------------------------------------------------ *)
(* Card table                                                          *)
(* ------------------------------------------------------------------ *)

let test_cards_basic () =
  let t = Card_table.create ~card_size:256 ~max_heap_bytes:(4 * kb) in
  check_int "count" 16 (Card_table.n_cards t);
  check_int "card of addr" 3 (Card_table.card_of_addr t 800);
  check "clean initially" false (Card_table.is_dirty t 3);
  Card_table.mark t 800;
  check "dirty after mark" true (Card_table.is_dirty t 3);
  check_int "dirty count" 1 (Card_table.dirty_count t);
  Card_table.clear_card t 3;
  check "clean after clear" false (Card_table.is_dirty t 3)

let test_cards_bounds () =
  let t = Card_table.create ~card_size:16 ~max_heap_bytes:kb in
  let lo, hi = Card_table.card_bounds t 2 in
  check_int "lo" 32 lo;
  check_int "hi" 48 hi

let test_cards_clear_all_and_iter () =
  let t = Card_table.create ~card_size:16 ~max_heap_bytes:kb in
  Card_table.mark t 0;
  Card_table.mark t 100;
  Card_table.mark t 1000;
  let seen = ref [] in
  Card_table.iter_dirty t (fun c -> seen := c :: !seen);
  check_int "three dirty" 3 (List.length !seen);
  check "ascending" true (!seen = List.rev (List.sort compare !seen));
  Card_table.clear_all t;
  check_int "none dirty" 0 (Card_table.dirty_count t)

let test_cards_size_validation () =
  check "rejects 8" true
    (match Card_table.create ~card_size:8 ~max_heap_bytes:kb with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "rejects 8192" true
    (match Card_table.create ~card_size:8192 ~max_heap_bytes:kb with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The word-level [dirty_count]/[iter_dirty] must agree with the naive
   one-byte-per-card loop they replaced, on any mark pattern and on card
   counts that are not multiples of the 8-card probe width. *)

let naive_dirty_cards t =
  let dirty = ref [] in
  for card = Card_table.n_cards t - 1 downto 0 do
    if Card_table.is_dirty t card then dirty := card :: !dirty
  done;
  !dirty

let prop_cards_wordscan_matches_naive =
  QCheck.Test.make ~name:"word-level card scan agrees with byte loop" ~count:200
    QCheck.(pair (int_range 1 200) (list (int_bound 10_000)))
    (fun (n_cards, marks) ->
      (* 16-byte cards: n_cards covers every residue mod 8, including
         tables smaller than one probe word *)
      let t = Card_table.create ~card_size:16 ~max_heap_bytes:(16 * n_cards) in
      List.iter (fun m -> Card_table.mark_card t (m mod n_cards)) marks;
      let expected = naive_dirty_cards t in
      let seen = ref [] in
      Card_table.iter_dirty t (fun c -> seen := c :: !seen);
      List.rev !seen = expected
      && Card_table.dirty_count t = List.length expected)

let prop_cards_wordscan_dense =
  QCheck.Test.make ~name:"word-level card scan on dense/sparse extremes"
    ~count:50
    QCheck.(pair (int_range 1 300) bool)
    (fun (n_cards, dense) ->
      let t = Card_table.create ~card_size:16 ~max_heap_bytes:(16 * n_cards) in
      if dense then
        for c = 0 to n_cards - 1 do
          Card_table.mark_card t c
        done
      else if n_cards > 1 then Card_table.mark_card t (n_cards - 1);
      let expected = naive_dirty_cards t in
      let seen = ref [] in
      Card_table.iter_dirty t (fun c -> seen := c :: !seen);
      List.rev !seen = expected
      && Card_table.dirty_count t = List.length expected)

let test_cards_iter_dirty_clearing_callback () =
  (* the collector's own usage: the callback cleans each card it visits *)
  let t = Card_table.create ~card_size:16 ~max_heap_bytes:(16 * 37) in
  List.iter (Card_table.mark_card t) [ 0; 7; 8; 20; 35; 36 ];
  let seen = ref [] in
  Card_table.iter_dirty t (fun c ->
      seen := c :: !seen;
      Card_table.clear_card t c);
  check "visited all once, in order" true
    (List.rev !seen = [ 0; 7; 8; 20; 35; 36 ]);
  check_int "all clean afterwards" 0 (Card_table.dirty_count t)

(* ------------------------------------------------------------------ *)
(* Age table                                                           *)
(* ------------------------------------------------------------------ *)

let test_ages () =
  let t = Age_table.create ~max_heap_bytes:kb in
  check_int "fresh" 0 (Age_table.get t 64);
  Age_table.incr t 64;
  Age_table.incr t 64;
  check_int "incremented" 2 (Age_table.get t 64);
  check_int "neighbour untouched" 0 (Age_table.get t 80);
  Age_table.set t 64 300;
  check_int "clamped" 255 (Age_table.get t 64);
  Age_table.incr t 64;
  check_int "saturates" 255 (Age_table.get t 64)

(* ------------------------------------------------------------------ *)
(* Page set                                                            *)
(* ------------------------------------------------------------------ *)

let test_pages_basic () =
  let tables = Layout.make_tables ~max_heap_bytes:(64 * kb) ~card_size:16 in
  let p = Page_set.create tables in
  check_int "empty" 0 (Page_set.count p);
  Page_set.touch_range p 0 1;
  Page_set.touch_range p 100 1;
  check_int "same page" 1 (Page_set.count p);
  Page_set.touch_range p 4096 1;
  check_int "two pages" 2 (Page_set.count p);
  Page_set.touch_range p 0 8193;
  check_int "range covers three" 3 (Page_set.count p);
  Page_set.reset p;
  check_int "reset" 0 (Page_set.count p)

let test_pages_tables_distinct () =
  let tables = Layout.make_tables ~max_heap_bytes:(64 * kb) ~card_size:16 in
  let p = Page_set.create tables in
  Page_set.touch_heap_object p ~addr:0 ~size:16;
  Page_set.touch_color p 0;
  Page_set.touch_age p 0;
  Page_set.touch_card p ~card_size:16 0;
  (* heap page + color page + age page + card page are all distinct *)
  check_int "four distinct pages" 4 (Page_set.count p)

(* ------------------------------------------------------------------ *)
(* Color                                                               *)
(* ------------------------------------------------------------------ *)

let test_color_byte_roundtrip () =
  List.iter
    (fun c ->
      check "roundtrip" true (Color.equal c (Color.of_byte (Color.to_byte c))))
    [ Color.Blue; Color.C0; Color.C1; Color.Gray; Color.Black ]

let test_color_other () =
  check "other c0" true (Color.equal (Color.other Color.C0) Color.C1);
  check "other c1" true (Color.equal (Color.other Color.C1) Color.C0);
  check "other black rejected" true
    (match Color.other Color.Black with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suites =
  [
    ( "heap.layout",
      [
        Alcotest.test_case "granules" `Quick test_layout_granules;
        Alcotest.test_case "tables disjoint" `Quick test_layout_tables_disjoint;
        Alcotest.test_case "entry addrs" `Quick test_layout_entry_addrs;
        Alcotest.test_case "bad card size" `Quick test_layout_bad_card_size;
      ] );
    ( "heap.space",
      [
        Alcotest.test_case "initial" `Quick test_space_initial;
        Alcotest.test_case "split and kinds" `Quick test_space_split_and_kinds;
        Alcotest.test_case "iteration" `Quick test_space_iteration;
        Alcotest.test_case "next/prev" `Quick test_space_next_prev;
        Alcotest.test_case "coalesce" `Quick test_space_coalesce;
        Alcotest.test_case "no merge with allocated" `Quick
          test_space_no_merge_with_allocated;
        Alcotest.test_case "grow" `Quick test_space_grow;
        Alcotest.test_case "find block start" `Quick test_space_find_block_start;
        Alcotest.test_case "crossing map basic" `Quick
          test_space_crossing_map_basic;
        Alcotest.test_case "crossing map coalesce across cards" `Quick
          test_space_crossing_map_coalesce_across_cards;
        Alcotest.test_case "crossing map grow" `Quick
          test_space_crossing_map_grow;
        Alcotest.test_case "single granule blocks" `Quick
          test_space_single_granule_blocks;
      ] );
    ( "heap.freelist",
      [
        Alcotest.test_case "exact fit" `Quick test_freelist_exact_fit;
        Alcotest.test_case "split remainder" `Quick test_freelist_split_remainder;
        Alcotest.test_case "exhaustion" `Quick test_freelist_exhaustion;
        Alcotest.test_case "push/pop roundtrip" `Quick
          test_freelist_push_pop_roundtrip;
        Alcotest.test_case "stale entries" `Quick test_freelist_stale_entries_skipped;
        Alcotest.test_case "large class" `Quick test_freelist_large_class;
        Alcotest.test_case "class_of_bytes" `Quick test_freelist_class_of_bytes;
        Alcotest.test_case "entry/stale counters" `Quick test_freelist_counters;
        QCheck_alcotest.to_alcotest prop_freelist_random_alloc_free;
      ] );
    ( "heap.heap",
      [
        Alcotest.test_case "alloc basic" `Quick test_heap_alloc_basic;
        Alcotest.test_case "alloc size check" `Quick test_heap_alloc_size_check;
        Alcotest.test_case "slots roundtrip" `Quick test_heap_slots_roundtrip;
        Alcotest.test_case "free recycles" `Quick test_heap_free_recycles;
        Alcotest.test_case "free validation" `Quick test_heap_free_validation;
        Alcotest.test_case "merge free prev" `Quick test_heap_merge_free_prev;
        Alcotest.test_case "accessors reject" `Quick test_heap_accessors_reject;
        QCheck_alcotest.to_alcotest prop_heap_matches_old_model;
        QCheck_alcotest.to_alcotest prop_merge_kernel_matches_reference;
        Alcotest.test_case "rounds allocate nothing" `Quick
          test_heap_rounds_allocate_nothing;
        Alcotest.test_case "grow" `Quick test_heap_grow;
        Alcotest.test_case "grow keeps trailing free block" `Quick
          test_heap_grow_no_merge_with_trailing_free;
        Alcotest.test_case "exhaustion" `Quick test_heap_exhaustion_returns_none;
        Alcotest.test_case "objects on card" `Quick test_heap_objects_on_card;
        Alcotest.test_case "card iteration agrees with full walk" `Quick
          test_heap_iter_objects_on_card_agrees;
        Alcotest.test_case "iter objects" `Quick test_heap_iter_objects_order;
        Alcotest.test_case "check detects dangling" `Quick
          test_heap_check_detects_dangling;
      ] );
    ( "heap.cards",
      [
        Alcotest.test_case "basic" `Quick test_cards_basic;
        Alcotest.test_case "bounds" `Quick test_cards_bounds;
        Alcotest.test_case "clear all / iter" `Quick test_cards_clear_all_and_iter;
        Alcotest.test_case "size validation" `Quick test_cards_size_validation;
        Alcotest.test_case "iter_dirty with clearing callback" `Quick
          test_cards_iter_dirty_clearing_callback;
        QCheck_alcotest.to_alcotest prop_cards_wordscan_matches_naive;
        QCheck_alcotest.to_alcotest prop_cards_wordscan_dense;
      ] );
    ("heap.ages", [ Alcotest.test_case "ages" `Quick test_ages ]);
    ( "heap.pages",
      [
        Alcotest.test_case "basic" `Quick test_pages_basic;
        Alcotest.test_case "tables distinct" `Quick test_pages_tables_distinct;
      ] );
    ( "heap.color",
      [
        Alcotest.test_case "byte roundtrip" `Quick test_color_byte_roundtrip;
        Alcotest.test_case "other" `Quick test_color_other;
      ] );
  ]
