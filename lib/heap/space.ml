type kind = Free | Allocated

type t = {
  max_granules : int;
  mutable cur_granules : int;
  (* Per-granule kind: 0 interior, 1 free block start, 2 allocated start. *)
  kinds : Bytes.t;
  (* Block size in granules, valid at the first granule (header tag) and at
     the last granule (footer tag) of every block. *)
  sizes : int array;
  mutable allocated_g : int;
  mutable allocated_blocks : int;
  (* Object-start crossing map: [card_first.(c)] is the granule index of
     the first block start on card [c], or -1 when no block starts there.
     Cards here are [card_size]-byte windows matching the heap's card
     table, so the collector's card scan can jump straight to the first
     object of a dirty card instead of probing granule by granule. *)
  card_shift : int; (* granule index -> card index shift *)
  card_first : int array;
}

let g = Layout.granule
let g_shift = Otfgc_support.Bits.log2_exact Layout.granule

let interior = '\000'
let free_start = '\001'
let alloc_start = '\002'

let set_tags t start size_g kind_byte =
  Bytes.set t.kinds start kind_byte;
  t.sizes.(start) <- size_g;
  t.sizes.(start + size_g - 1) <- size_g;
  (* The footer granule must read as interior unless the block is a single
     granule (header and footer coincide). *)
  if size_g > 1 then Bytes.set t.kinds (start + size_g - 1) interior

(* A granule became a block start: it may now be the first on its card. *)
let note_new_start t i =
  let c = i lsr t.card_shift in
  let cur = Array.unsafe_get t.card_first c in
  if cur < 0 || cur > i then Array.unsafe_set t.card_first c i

let create ?(card_size = Layout.granule) ~initial_bytes ~max_bytes () =
  if initial_bytes <= 0 || initial_bytes > max_bytes then
    invalid_arg "Space.create: need 0 < initial_bytes <= max_bytes";
  if card_size < g || not (Otfgc_support.Bits.is_pow2 card_size) then
    invalid_arg "Space.create: card size must be a power of two >= granule";
  let max_granules = Layout.granules_of_bytes max_bytes in
  let cur_granules = Layout.granules_of_bytes initial_bytes in
  let card_shift = Otfgc_support.Bits.log2_exact card_size - g_shift in
  let n_cards = ((max_granules - 1) lsr card_shift) + 1 in
  let t =
    {
      max_granules;
      cur_granules;
      kinds = Bytes.make max_granules interior;
      sizes = Array.make max_granules 0;
      allocated_g = 0;
      allocated_blocks = 0;
      card_shift;
      card_first = Array.make n_cards (-1);
    }
  in
  set_tags t 0 cur_granules free_start;
  t.card_first.(0) <- 0;
  t

let capacity t = Layout.bytes_of_granules t.cur_granules
let max_capacity t = Layout.bytes_of_granules t.max_granules
let allocated_bytes t = Layout.bytes_of_granules t.allocated_g
let allocated_blocks t = t.allocated_blocks
let free_bytes t = capacity t - allocated_bytes t

let gi addr =
  if addr land (g - 1) <> 0 then
    invalid_arg (Printf.sprintf "Space: unaligned address %d" addr);
  addr / g

let is_block_start t addr =
  let i = gi addr in
  i < t.cur_granules && Bytes.get t.kinds i <> interior

let is_allocated_start t addr =
  addr >= 0
  && addr land (g - 1) = 0
  && addr lsr g_shift < t.cur_granules
  && Bytes.unsafe_get t.kinds (addr lsr g_shift) = alloc_start

let kind_of t addr =
  let i = gi addr in
  match Bytes.get t.kinds i with
  | c when c = free_start -> Free
  | c when c = alloc_start -> Allocated
  | _ -> invalid_arg (Printf.sprintf "Space.kind_of: %d is not a block start" addr)

let block_size t addr =
  let i = gi addr in
  if Bytes.get t.kinds i = interior then
    invalid_arg (Printf.sprintf "Space.block_size: %d is not a block start" addr);
  Layout.bytes_of_granules t.sizes.(i)

(* Bounds-check-free variants for the sweep and iteration hot loops; the
   address must be a granule-aligned block start below the current
   capacity (the checked API above enforces exactly that). *)
let unsafe_kind t addr =
  if Bytes.unsafe_get t.kinds (addr lsr g_shift) = free_start then Free
  else Allocated

let unsafe_size t addr =
  Array.unsafe_get t.sizes (addr lsr g_shift) lsl g_shift

let find_block_start t a =
  let i = ref (a / g) in
  if !i >= t.cur_granules then
    invalid_arg (Printf.sprintf "Space.find_block_start: %d out of range" a);
  while Bytes.get t.kinds !i = interior do
    decr i
  done;
  !i * g

let set_kind t addr kind =
  let i = gi addr in
  let size_g = t.sizes.(i) in
  (match (Bytes.get t.kinds i, kind) with
  | c, Allocated when c = free_start ->
      t.allocated_g <- t.allocated_g + size_g;
      t.allocated_blocks <- t.allocated_blocks + 1
  | c, Free when c = alloc_start ->
      t.allocated_g <- t.allocated_g - size_g;
      t.allocated_blocks <- t.allocated_blocks - 1
  | c, _ when c = interior ->
      invalid_arg (Printf.sprintf "Space.set_kind: %d is not a block start" addr)
  | _ -> ());
  Bytes.set t.kinds i (match kind with Free -> free_start | Allocated -> alloc_start)

let unsafe_free t addr =
  let i = addr lsr g_shift in
  t.allocated_g <- t.allocated_g - Array.unsafe_get t.sizes i;
  t.allocated_blocks <- t.allocated_blocks - 1;
  Bytes.unsafe_set t.kinds i free_start

let split t addr ~first_bytes =
  let i = gi addr in
  if Bytes.get t.kinds i <> free_start then
    invalid_arg "Space.split: not a free block";
  let total_g = t.sizes.(i) in
  let first_g = Layout.granules_of_bytes first_bytes in
  if first_g <= 0 || first_g >= total_g then
    invalid_arg "Space.split: size must leave a non-empty remainder";
  let rest_g = total_g - first_g in
  set_tags t i first_g free_start;
  set_tags t (i + first_g) rest_g free_start;
  note_new_start t (i + first_g);
  (i + first_g) * g

let next_block t addr =
  let i = gi addr in
  if Bytes.get t.kinds i = interior then
    invalid_arg "Space.next_block: not a block start";
  let j = i + t.sizes.(i) in
  if j >= t.cur_granules then None else Some (j * g)

let prev_block t addr =
  let i = gi addr in
  if Bytes.get t.kinds i = interior then
    invalid_arg "Space.prev_block: not a block start";
  if i = 0 then None
  else
    let footer = t.sizes.(i - 1) in
    Some ((i - footer) * g)

(* Absorb the free block at granule [nj] into the free block at granule
   [i] that ends right before it. *)
let absorb_next t i nj =
  let merged = Array.unsafe_get t.sizes i + Array.unsafe_get t.sizes nj in
  (* Erase the old header of the absorbed block before rewriting tags. *)
  Bytes.unsafe_set t.kinds nj interior;
  set_tags t i merged free_start;
  (* The absorbed header may have been the first start of its card; the
     next start in that card — if any — can only be the block following
     the merged one, since everything in between is now interior. *)
  let c = nj lsr t.card_shift in
  if Array.unsafe_get t.card_first c = nj then begin
    let following = i + merged in
    Array.unsafe_set t.card_first c
      (if following < t.cur_granules && following lsr t.card_shift = c then
         following
       else -1)
  end

let coalesce_with_next t addr =
  let i = gi addr in
  if Bytes.get t.kinds i <> free_start then
    invalid_arg "Space.coalesce_with_next: not a free block";
  match next_block t addr with
  | Some nxt when Bytes.get t.kinds (gi nxt) = free_start ->
      absorb_next t i (gi nxt);
      true
  | _ -> false

let unsafe_merge_prev t addr =
  let nj = addr lsr g_shift in
  if nj = 0 then -1
  else
    let i = nj - Array.unsafe_get t.sizes (nj - 1) in
    if Bytes.unsafe_get t.kinds i <> free_start then -1
    else begin
      absorb_next t i nj;
      i lsl g_shift
    end

let grow t ~want_bytes =
  if t.cur_granules >= t.max_granules then None
  else begin
    let want_g = Stdlib.max 1 (Layout.granules_of_bytes want_bytes) in
    let add_g = Stdlib.min want_g (t.max_granules - t.cur_granules) in
    let start = t.cur_granules in
    t.cur_granules <- t.cur_granules + add_g;
    set_tags t start add_g free_start;
    note_new_start t start;
    (* Deliberately no merging with a trailing free block: growth can race
       with a concurrent sweep whose cursor relies on existing block
       boundaries never disappearing ahead of it.  The next sweep merges
       the seam. *)
    Some (start * g, Layout.bytes_of_granules add_g)
  end

let iter_blocks t f =
  let i = ref 0 in
  while !i < t.cur_granules do
    let size_g = Array.unsafe_get t.sizes !i in
    let kind =
      if Bytes.unsafe_get t.kinds !i = free_start then Free else Allocated
    in
    f (!i * g) kind (Layout.bytes_of_granules size_g);
    i := !i + size_g
  done

let iter_block_starts_on_card t card f =
  if card >= 0 && card < Array.length t.card_first then begin
    let j = Array.unsafe_get t.card_first card in
    if j >= 0 then begin
      let limit =
        Stdlib.min t.cur_granules ((card + 1) lsl t.card_shift)
      in
      let i = ref j in
      while !i < limit do
        let size_g = Array.unsafe_get t.sizes !i in
        let kind =
          if Bytes.unsafe_get t.kinds !i = free_start then Free else Allocated
        in
        f (!i * g) kind (Layout.bytes_of_granules size_g);
        i := !i + size_g
      done
    end
  end

let check t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec walk i acc_alloc acc_blocks =
    if i = t.cur_granules then
      if acc_alloc <> t.allocated_g then
        err "allocated accounting: counted %d, recorded %d" acc_alloc t.allocated_g
      else if acc_blocks <> t.allocated_blocks then
        err "allocated block count: counted %d, recorded %d" acc_blocks
          t.allocated_blocks
      else Ok ()
    else if i > t.cur_granules then err "block overruns capacity at granule %d" i
    else
      let k = Bytes.get t.kinds i in
      if k = interior then err "granule %d: expected block start" i
      else
        let size_g = t.sizes.(i) in
        let* () =
          if size_g <= 0 then err "granule %d: non-positive size" i
          else if t.sizes.(i + size_g - 1) <> size_g then
            err "granule %d: footer tag mismatch" i
          else Ok ()
        in
        let* () =
          let ok = ref (Ok ()) in
          for j = i + 1 to i + size_g - 2 do
            if Bytes.get t.kinds j <> interior && !ok = Ok () then
              ok := err "granule %d: interior granule marked as block start" j
          done;
          !ok
        in
        let alloc = k = alloc_start in
        walk (i + size_g)
          (acc_alloc + if alloc then size_g else 0)
          (acc_blocks + if alloc then 1 else 0)
  in
  let* () = walk 0 0 0 in
  (* The crossing map must agree with a from-scratch recomputation. *)
  let expect = Array.make (Array.length t.card_first) (-1) in
  let i = ref 0 in
  while !i < t.cur_granules do
    let c = !i lsr t.card_shift in
    if expect.(c) < 0 then expect.(c) <- !i;
    i := !i + t.sizes.(!i)
  done;
  let bad = ref (Ok ()) in
  Array.iteri
    (fun c e ->
      if !bad = Ok () && t.card_first.(c) <> e then
        bad := err "crossing map: card %d records granule %d, expected %d" c
                 t.card_first.(c) e)
    expect;
  !bad
