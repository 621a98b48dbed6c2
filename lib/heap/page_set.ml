type t = { tables : Layout.tables; pages : Otfgc_support.Bitset.t }

let create tables =
  let n_pages = (tables.Layout.virtual_span + Layout.page_size - 1) / Layout.page_size in
  { tables; pages = Otfgc_support.Bitset.create n_pages }

let reset t = Otfgc_support.Bitset.clear t.pages

(* Per-worker page sets under a multi-worker crew: each worker records
   its own touches, and the cycle end counts their union — the union
   over any partition of the work equals the serial set.  Both sets must
   span the same layout. *)
let merge_into ~src ~dst = Otfgc_support.Bitset.union_into ~dst:dst.pages src.pages

let count t = Otfgc_support.Bitset.cardinal t.pages

let touch_range t addr len =
  if len > 0 then begin
    let first = Layout.page_of_addr addr in
    let last = Layout.page_of_addr (addr + len - 1) in
    (* One word-blitting range-add instead of a bit store per page, so
       sweeping a large span costs O(pages/8) table writes. *)
    Otfgc_support.Bitset.add_range t.pages first (last - first + 1)
  end

let touch_heap_object t ~addr ~size = touch_range t addr size

let touch_color t heap_addr =
  touch_range t (Layout.color_entry_addr t.tables heap_addr) 1

let touch_age t heap_addr =
  touch_range t (Layout.age_entry_addr t.tables heap_addr) 1

let touch_card t ~card_size heap_addr =
  touch_range t (Layout.card_entry_addr t.tables ~card_size heap_addr) 1

let touch_card_index t ~card_index =
  touch_range t (t.tables.Layout.card_table_base + card_index) 1

let touch_remset t heap_addr =
  touch_range t (Layout.remset_entry_addr t.tables heap_addr) 1
