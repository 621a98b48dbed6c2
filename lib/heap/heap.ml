type config = { initial_bytes : int; max_bytes : int; card_size : int }

let default_config =
  { initial_bytes = 1 lsl 20; max_bytes = 8 lsl 20; card_size = 16 }

type t = {
  config : config;
  space : Space.t;
  freelist : Freelist.t;
  cards : Card_table.t;
  ages : Age_table.t;
  remset : Remset.t;
  layout : Layout.tables;
  colors : Bytes.t; (* one byte per granule, Color.to_byte encoding *)
  slots : int array array; (* per start granule; [||] when not an object *)
  datas : int array array; (* scalar (non-pointer) words, same indexing *)
  mutable total_alloc_bytes : int;
  mutable total_alloc_objects : int;
  (* Reusable snapshot buffer for iter_objects_on_card (see below). *)
  mutable card_scratch : int array;
}

let nil = -1
let no_slots : int array = [||]

let create config =
  if config.initial_bytes <= 0 || config.initial_bytes > config.max_bytes then
    invalid_arg "Heap.create: need 0 < initial_bytes <= max_bytes";
  let space =
    Space.create ~card_size:config.card_size ~initial_bytes:config.initial_bytes
      ~max_bytes:config.max_bytes ()
  in
  let n_granules = Layout.granules_of_bytes config.max_bytes in
  {
    config;
    space;
    freelist = Freelist.create space;
    cards = Card_table.create ~card_size:config.card_size ~max_heap_bytes:config.max_bytes;
    ages = Age_table.create ~max_heap_bytes:config.max_bytes;
    remset = Remset.create ~max_heap_bytes:config.max_bytes;
    layout = Layout.make_tables ~max_heap_bytes:config.max_bytes ~card_size:config.card_size;
    colors = Bytes.make n_granules (Color.to_byte Color.Blue);
    slots = Array.make n_granules no_slots;
    datas = Array.make n_granules no_slots;
    total_alloc_bytes = 0;
    total_alloc_objects = 0;
    card_scratch = Array.make 64 0;
  }

let config t = t.config
let space t = t.space
let cards t = t.cards
let ages t = t.ages
let remset t = t.remset
let freelist t = t.freelist
let layout t = t.layout

let gi = Layout.granule_index

let color t addr = Color.of_byte (Bytes.get t.colors (gi addr))
let set_color t addr c = Bytes.set t.colors (gi addr) (Color.to_byte c)

let is_object t addr = Space.is_allocated_start t.space addr

let size t addr = Space.block_size t.space addr
let n_slots t addr = Array.length t.slots.(gi addr)

let get_slot t x i = t.slots.(gi x).(i)
let set_slot t x i y = t.slots.(gi x).(i) <- y

let n_data t addr = Array.length t.datas.(gi addr)
let get_data t x i = t.datas.(gi x).(i)
let set_data t x i v = t.datas.(gi x).(i) <- v

let iter_slots t x f =
  let s = t.slots.(gi x) in
  for i = 0 to Array.length s - 1 do
    if s.(i) <> nil then f s.(i)
  done

let alloc t ~size ~n_slots ~color =
  let min_size = 16 + (8 * n_slots) in
  if size < min_size then
    invalid_arg
      (Printf.sprintf "Heap.alloc: size %d too small for %d slots" size n_slots);
  match Freelist.pop t.freelist ~bytes_wanted:size with
  | None -> None
  | Some addr ->
      Space.set_kind t.space addr Space.Allocated;
      set_color t addr color;
      Age_table.set t.ages addr 0;
      t.slots.(gi addr) <- (if n_slots = 0 then no_slots else Array.make n_slots nil);
      let real = Space.block_size t.space addr in
      (* the bytes beyond the header and the pointer slots are scalar
         fields, one 8-byte word each *)
      let n_data = (real - 16 - (8 * n_slots)) / 8 in
      t.datas.(gi addr) <- (if n_data = 0 then no_slots else Array.make n_data 0);
      t.total_alloc_bytes <- t.total_alloc_bytes + real;
      t.total_alloc_objects <- t.total_alloc_objects + 1;
      Some addr

(* --- Reserved blocks (real-domains allocation caches) ---------------

   A reserved block has been popped from the free list and claimed by one
   mutator's cache, but not yet issued as an object: kind [Allocated] so
   no other allocation can take it, color [Blue] so every collector walk
   (sweep, census, card scan, full-collection init) recognises it as
   not-an-object and skips it.  The simulator never creates this state,
   so all simulated figures are untouched.  [reserve]/[release_reserved]
   mutate the block structure and must run under the runtime's heap lock;
   [issue] touches only the block's own granule entries and runs
   lock-free on the owning mutator's domain. *)

let reserve t ~size =
  match Freelist.pop t.freelist ~bytes_wanted:size with
  | None -> None
  | Some addr ->
      Space.set_kind t.space addr Space.Allocated;
      set_color t addr Color.Blue;
      Some addr

let issue t addr ~n_slots ~color =
  set_color t addr color;
  Age_table.set t.ages addr 0;
  t.slots.(gi addr) <- (if n_slots = 0 then no_slots else Array.make n_slots nil);
  let real = Space.block_size t.space addr in
  let n_data = (real - 16 - (8 * n_slots)) / 8 in
  t.datas.(gi addr) <- (if n_data = 0 then no_slots else Array.make n_data 0);
  real

let release_reserved t addr =
  set_color t addr Color.Blue;
  Space.set_kind t.space addr Space.Free;
  Freelist.push t.freelist addr

let add_alloc_stats t ~bytes ~objects =
  t.total_alloc_bytes <- t.total_alloc_bytes + bytes;
  t.total_alloc_objects <- t.total_alloc_objects + objects

let free t addr =
  if not (is_object t addr) then
    invalid_arg (Printf.sprintf "Heap.free: %d is not an allocated object" addr);
  set_color t addr Color.Blue;
  t.slots.(gi addr) <- no_slots;
  t.datas.(gi addr) <- no_slots;
  (* drop the remembered-set dedup flag, or a new object reusing this
     granule could never be recorded again *)
  Remset.forget t.remset addr;
  Space.set_kind t.space addr Space.Free;
  Freelist.push t.freelist addr

let merge_free_prev t addr =
  if Space.kind_of t.space addr <> Space.Free then
    invalid_arg "Heap.merge_free_prev: block is not free";
  match Space.prev_block t.space addr with
  | Some p when Space.kind_of t.space p = Space.Free ->
      ignore (Space.coalesce_with_next t.space p : bool);
      Freelist.push t.freelist p;
      p
  | _ -> addr

let grow t ~want_bytes =
  match Space.grow t.space ~want_bytes with
  | None -> false
  | Some (addr, _size) ->
      (* Space.grow deliberately never merges the new block with a trailing
         free block (boundaries ahead of a concurrent sweep cursor must not
         disappear), so no freelist entry can have gone stale here: the new
         block just needs its own entry.  The next sweep merges the seam. *)
      Freelist.push t.freelist addr;
      true

let iter_objects t f =
  Space.iter_blocks t.space (fun addr kind _size ->
      if kind = Space.Allocated then f addr)

(* The space's crossing map (same card geometry as the card table) jumps
   straight to the card's first block; the allocated starts are snapshotted
   into a reusable scratch buffer BEFORE the callback runs.  The snapshot
   is semantically load-bearing, not just a loop shape: the collector's
   card-scan callbacks contain scheduling points, so under fine-grained
   interleaving a mutator may split blocks on this very card mid-scan, and
   an incremental walk would see objects the old list-returning API (which
   also snapshotted) never did.  Not reentrant: the callback must not
   itself call iter_objects_on_card (the collector scans one card at a
   time). *)
let iter_objects_on_card t card f =
  let scratch = ref t.card_scratch in
  let len = ref 0 in
  Space.iter_block_starts_on_card t.space card (fun addr kind _size ->
      if kind = Space.Allocated then begin
        if !len = Array.length !scratch then begin
          let bigger = Array.make (2 * !len) 0 in
          Array.blit !scratch 0 bigger 0 !len;
          t.card_scratch <- bigger;
          scratch := bigger
        end;
        Array.unsafe_set !scratch !len addr;
        incr len
      end);
  let scratch = !scratch in
  for i = 0 to !len - 1 do
    f (Array.unsafe_get scratch i)
  done

(* Same walk with a caller-owned scratch buffer, so several collector
   workers can scan disjoint cards concurrently (the shared
   [t.card_scratch] above makes the default variant single-caller). *)
let iter_objects_on_card_buf t ~scratch card f =
  let len = ref 0 in
  Space.iter_block_starts_on_card t.space card (fun addr kind _size ->
      if kind = Space.Allocated then begin
        if !len = Array.length !scratch then begin
          let bigger = Array.make (2 * !len) 0 in
          Array.blit !scratch 0 bigger 0 !len;
          scratch := bigger
        end;
        Array.unsafe_set !scratch !len addr;
        incr len
      end);
  let buf = !scratch in
  for i = 0 to !len - 1 do
    f (Array.unsafe_get buf i)
  done

let objects_on_card t card =
  let acc = ref [] in
  iter_objects_on_card t card (fun addr -> acc := addr :: !acc);
  List.rev !acc

let capacity t = Space.capacity t.space
let max_capacity t = Space.max_capacity t.space
let allocated_bytes t = Space.allocated_bytes t.space
let free_bytes t = Space.free_bytes t.space
let total_allocated_bytes t = t.total_alloc_bytes
let total_allocated_objects t = t.total_alloc_objects

let reset_allocation_stats t =
  t.total_alloc_bytes <- 0;
  t.total_alloc_objects <- 0

let object_count t = Space.allocated_blocks t.space

let check ?(check_slots = true) t =
  match Space.check t.space with
  | Error _ as e -> e
  | Ok () ->
      let err = ref None in
      let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
      Space.iter_blocks t.space (fun addr kind _size ->
          match kind with
          | Space.Free ->
              if not (Color.equal (color t addr) Color.Blue) then
                fail "free block %d is %s, expected blue" addr
                  (Color.to_string (color t addr))
          | Space.Allocated ->
              if Color.equal (color t addr) Color.Blue then
                fail "allocated object %d is blue" addr;
              if check_slots then
                iter_slots t addr (fun y ->
                    if not (is_object t y) then
                      fail "object %d has dangling slot -> %d" addr y));
      (match !err with None -> Ok () | Some e -> Error e)
