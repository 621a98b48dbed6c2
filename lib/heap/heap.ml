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
  mem : int array; (* one word per 8 heap bytes; object layout below *)
  somes : int option array;
      (* [Some addr] per start granule, made on first use: [alloc] hands
         the same block out again, so it allocates nothing once warm *)
  mutable total_alloc_bytes : int;
  mutable total_alloc_objects : int;
}

let nil = -1

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
    mem = Array.make (2 * n_granules) 0;
    somes = Array.make n_granules None;
    total_alloc_bytes = 0;
    total_alloc_objects = 0;
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

(* Object words.  The object at [addr] starts at word [addr lsr 3]: a
   header word holding [n_slots + 1], a pad word, the [n_slots] pointer
   slots, then the scalar words up to the end of the block — the paper's
   16-byte header followed by 8-byte fields.  A header of 0 marks a block
   that has no object layout: a reserved block not yet issued, or (with
   the block no longer allocated) a freed one. *)
let word addr = addr lsr 3

let[@inline never] not_object fn addr =
  invalid_arg (Printf.sprintf "Heap.%s: %d is not an allocated object" fn addr)

let[@inline never] bad_index fn addr i =
  invalid_arg (Printf.sprintf "Heap.%s: index %d out of range for object %d" fn i addr)

(* The header word of the object at [addr], validated. *)
let[@inline] header t fn addr =
  if not (Space.is_allocated_start t.space addr) then not_object fn addr;
  Array.unsafe_get t.mem (word addr)

let[@inline] slots_of_header h = if h = 0 then 0 else h - 1

let n_slots t addr = slots_of_header (header t "n_slots" addr)

let get_slot t x i =
  let n = slots_of_header (header t "get_slot" x) in
  if i < 0 || i >= n then bad_index "get_slot" x i;
  Array.unsafe_get t.mem (word x + 2 + i)

let set_slot t x i y =
  let n = slots_of_header (header t "set_slot" x) in
  if i < 0 || i >= n then bad_index "set_slot" x i;
  Array.unsafe_set t.mem (word x + 2 + i) y

let unsafe_get_slot t x i = Array.unsafe_get t.mem (word x + 2 + i)

(* The scalar words follow the slots: [size / 8 - 2 - n_slots] of them,
   none for a block with no object layout. *)
let[@inline] n_data_of t x h =
  if h = 0 then 0 else (Space.unsafe_size t.space x lsr 3) - 1 - h

let n_data t addr = n_data_of t addr (header t "n_data" addr)

let get_data t x i =
  let h = header t "get_data" x in
  if i < 0 || i >= n_data_of t x h then bad_index "get_data" x i;
  Array.unsafe_get t.mem (word x + 1 + h + i)

let set_data t x i v =
  let h = header t "set_data" x in
  if i < 0 || i >= n_data_of t x h then bad_index "set_data" x i;
  Array.unsafe_set t.mem (word x + 1 + h + i) v

let iter_slots t x f =
  let base = word x + 2 in
  for i = base to base + slots_of_header (header t "iter_slots" x) - 1 do
    let y = Array.unsafe_get t.mem i in
    if y <> nil then f y
  done

(* Lay out a fresh object in the [real]-byte block at [addr]: pad, slots
   at nil, scalar words zeroed, and the header last. *)
let init_words t addr ~n_slots ~real =
  let mem = t.mem in
  let w = word addr in
  Array.unsafe_set mem (w + 1) 0;
  for i = w + 2 to w + 1 + n_slots do
    Array.unsafe_set mem i nil
  done;
  for i = w + 2 + n_slots to w + (real lsr 3) - 1 do
    Array.unsafe_set mem i 0
  done;
  Array.unsafe_set mem w (n_slots + 1)

let some t addr =
  match Array.unsafe_get t.somes (gi addr) with
  | Some _ as r -> r
  | None ->
      let r = Some addr in
      Array.unsafe_set t.somes (gi addr) r;
      r

let alloc t ~size ~n_slots ~color =
  let min_size = 16 + (8 * n_slots) in
  if n_slots < 0 || size < min_size then
    invalid_arg
      (Printf.sprintf "Heap.alloc: size %d too small for %d slots" size n_slots);
  let addr = Freelist.pop t.freelist ~bytes_wanted:size in
  if addr < 0 then None
  else begin
    Space.set_kind t.space addr Space.Allocated;
    let real = Space.block_size t.space addr in
    init_words t addr ~n_slots ~real;
    set_color t addr color;
    Age_table.set t.ages addr 0;
    t.total_alloc_bytes <- t.total_alloc_bytes + real;
    t.total_alloc_objects <- t.total_alloc_objects + 1;
    some t addr
  end

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
  let addr = Freelist.pop t.freelist ~bytes_wanted:size in
  if addr < 0 then None
  else begin
    Space.set_kind t.space addr Space.Allocated;
    (* the block may start on a word of an earlier object *)
    t.mem.(word addr) <- 0;
    set_color t addr Color.Blue;
    some t addr
  end

(* The words are written before the color: a collector that sees the
   object's new color through the gray-queue mutex or a handshake sees
   its words too (DESIGN.md section 10.3). *)
let issue t addr ~n_slots ~color =
  let real = Space.block_size t.space addr in
  if n_slots < 0 || 16 + (8 * n_slots) > real then
    invalid_arg
      (Printf.sprintf "Heap.issue: %d-byte block too small for %d slots" real n_slots);
  init_words t addr ~n_slots ~real;
  set_color t addr color;
  Age_table.set t.ages addr 0;
  real

let release_reserved t addr =
  set_color t addr Color.Blue;
  Space.set_kind t.space addr Space.Free;
  Freelist.push t.freelist addr

let add_alloc_stats t ~bytes ~objects =
  t.total_alloc_bytes <- t.total_alloc_bytes + bytes;
  t.total_alloc_objects <- t.total_alloc_objects + objects

let unsafe_free t addr =
  Bytes.unsafe_set t.colors (gi addr) (Color.to_byte Color.Blue);
  Array.unsafe_set t.mem (word addr) 0;
  (* drop the remembered-set dedup flag, or a new object reusing this
     granule could never be recorded again *)
  Remset.forget t.remset addr;
  Space.unsafe_free t.space addr;
  Freelist.unsafe_push t.freelist addr

let free t addr =
  if not (is_object t addr) then
    invalid_arg (Printf.sprintf "Heap.free: %d is not an allocated object" addr);
  unsafe_free t addr

(* Every merge pushes the merged block, even though the merged block of
   a run is pushed again at each later merge in the run and only the
   last entry stays valid: a stale entry can become valid again once the
   block is split back to that size, so the pushes and their order are
   part of the allocation decisions the digests pin. *)
let merge_free_prev t addr =
  let p = Space.unsafe_merge_prev t.space addr in
  if p < 0 then addr
  else begin
    Freelist.unsafe_push t.freelist p;
    p
  end

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
   into the caller's scratch buffer BEFORE the callback runs.  The snapshot
   is semantically load-bearing, not just a loop shape: the collector's
   card-scan callbacks contain scheduling points, so under fine-grained
   interleaving a mutator may split blocks on this very card mid-scan, and
   an incremental walk would see objects the old list-returning API (which
   also snapshotted) never did.  Each collector worker owns its buffer, so
   workers scanning disjoint cards never share snapshot state; a callback
   must not reuse the buffer it is called from. *)
let iter_objects_on_card t ~scratch card f =
  let len = ref 0 in
  Space.iter_block_starts_on_card t.space card (fun addr kind _size ->
      if kind = Space.Allocated then begin
        if !len = Array.length !scratch then begin
          let bigger = Array.make (Stdlib.max 16 (2 * !len)) 0 in
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
  iter_objects_on_card t ~scratch:(ref [||]) card (fun addr -> acc := addr :: !acc);
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
