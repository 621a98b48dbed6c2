(* Classes 0..62 hold blocks of exactly (class+1) granules (16 B .. 1008 B);
   class 63 holds everything larger, searched first-fit.

   Each class is a growable int-array stack (top = most recent push), and
   a one-word occupancy bitmap has bit [c] set iff exact class [c] is
   non-empty — the 63 exact classes fit exactly in OCaml's 63-bit native
   int; the large class is tracked by its length alone.  [pop] finds the
   smallest non-empty class at or above the request with one ctz probe
   instead of a per-class loop.  Candidate order is identical to the old
   list representation (LIFO within a class, ascending classes, first-fit
   from the most recent push in the large class), so allocation decisions
   — and every simulated figure — are unchanged. *)

let n_exact = 63
let n_classes = n_exact + 1

let class_of_granules gr = if gr <= n_exact then gr - 1 else n_exact
let class_of_bytes b = class_of_granules (Layout.granules_of_bytes b)

type t = {
  space : Space.t;
  stacks : int array array;
  lens : int array;
  mutable occupancy : int; (* bit c <=> lens.(c) > 0, exact classes only *)
  mutable n_entries : int; (* entries currently queued, stale included *)
  mutable stale_drops : int; (* cumulative stale entries discarded *)
}

(* [cls] is always in [0, n_classes): unsafe indexing below is sound. *)
let push_class t cls addr =
  let st = Array.unsafe_get t.stacks cls in
  let n = Array.unsafe_get t.lens cls in
  let st =
    if n < Array.length st then st
    else begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit st 0 bigger 0 n;
      Array.unsafe_set t.stacks cls bigger;
      bigger
    end
  in
  Array.unsafe_set st n addr;
  Array.unsafe_set t.lens cls (n + 1);
  t.n_entries <- t.n_entries + 1;
  if cls < n_exact then t.occupancy <- t.occupancy lor (1 lsl cls)

let push_raw t addr =
  let cls = class_of_granules (Space.block_size t.space addr / Layout.granule) in
  push_class t cls addr

let create space =
  let t =
    {
      space;
      stacks = Array.init n_classes (fun _ -> Array.make 8 0);
      lens = Array.make n_classes 0;
      occupancy = 0;
      n_entries = 0;
      stale_drops = 0;
    }
  in
  Space.iter_blocks space (fun addr kind _size ->
      if kind = Space.Free then push_raw t addr);
  t

let push t addr =
  if Space.kind_of t.space addr <> Space.Free then
    invalid_arg "Freelist.push: block is not free";
  push_raw t addr

(* An entry is stale when coalescing absorbed its block (no longer a free
   block start) or changed its size class. *)
let valid t cls addr =
  Space.is_block_start t.space addr
  && Space.kind_of t.space addr = Space.Free
  && class_of_granules (Space.block_size t.space addr / Layout.granule) = cls

let rec pop_class t cls =
  let n = Array.unsafe_get t.lens cls in
  if n = 0 then begin
    if cls < n_exact then t.occupancy <- t.occupancy land lnot (1 lsl cls);
    -1
  end
  else begin
    let n = n - 1 in
    let addr = Array.unsafe_get (Array.unsafe_get t.stacks cls) n in
    Array.unsafe_set t.lens cls n;
    t.n_entries <- t.n_entries - 1;
    if n = 0 && cls < n_exact then
      t.occupancy <- t.occupancy land lnot (1 lsl cls);
    if valid t cls addr then addr
    else begin
      t.stale_drops <- t.stale_drops + 1;
      pop_class t cls
    end
  end

(* First-fit inside the large class: scan from the top of the stack (the
   most recent push — the old list's head) for the first valid entry big
   enough.  Stale entries met on the way are blanked and compacted away in
   place; valid-but-small entries keep their relative order.  No list is
   ever rebuilt, unlike the old rev/rev_append version. *)
let pop_large t ~granules =
  let st = t.stacks.(n_exact) in
  let n = t.lens.(n_exact) in
  let j = ref (n - 1) in
  let result = ref (-1) in
  let stale = ref 0 in
  while !result < 0 && !j >= 0 do
    let addr = Array.unsafe_get st !j in
    if not (valid t n_exact addr) then begin
      Array.unsafe_set st !j (-1);
      incr stale;
      decr j
    end
    else if Space.block_size t.space addr / Layout.granule >= granules then
      result := addr
    else decr j
  done;
  t.stale_drops <- t.stale_drops + !stale;
  if !result >= 0 then begin
    (* drop the match at [!j] and the blanked entries above it *)
    let w = ref !j in
    for i = !j + 1 to n - 1 do
      let a = Array.unsafe_get st i in
      if a >= 0 then begin
        Array.unsafe_set st !w a;
        incr w
      end
    done;
    t.n_entries <- t.n_entries - (n - !w);
    t.lens.(n_exact) <- !w;
    !result
  end
  else begin
    if !stale > 0 then begin
      let w = ref 0 in
      for i = 0 to n - 1 do
        let a = Array.unsafe_get st i in
        if a >= 0 then begin
          Array.unsafe_set st !w a;
          incr w
        end
      done;
      t.n_entries <- t.n_entries - !stale;
      t.lens.(n_exact) <- !w
    end;
    -1
  end

(* Every pop returns an address, or -1 for none, so that no option is
   built on the allocation path. *)
let pop t ~bytes_wanted =
  let want_g = Layout.granules_of_bytes (Stdlib.max 1 bytes_wanted) in
  let want_b = Layout.bytes_of_granules want_g in
  let exact = if want_g <= n_exact then pop_class t (want_g - 1) else -1 in
  if exact >= 0 then exact
  else begin
    (* Find a strictly larger block to split (or an exact large block):
       the smallest occupied class at or above the request, in one bitmap
       probe per (rare) all-stale class. *)
    let found = ref (-1) in
    if want_g < n_exact then begin
      let continue = ref true in
      while !found < 0 && !continue do
        let m = t.occupancy land ((-1) lsl want_g) in
        if m = 0 then continue := false
        else
          (* -1 when the class was all stale; its bit is now clear *)
          found := pop_class t (Otfgc_support.Bits.ctz m)
      done
    end;
    let addr = if !found >= 0 then !found else pop_large t ~granules:want_g in
    if addr >= 0 && Space.block_size t.space addr > want_b then begin
      let rest = Space.split t.space addr ~first_bytes:want_b in
      push_raw t rest
    end;
    addr
  end

let rebuild t =
  Array.fill t.lens 0 n_classes 0;
  t.occupancy <- 0;
  t.n_entries <- 0;
  Space.iter_blocks t.space (fun addr kind _size ->
      if kind = Space.Free then push_raw t addr)

let entry_count t = t.n_entries
let stale_entries t = t.stale_drops
