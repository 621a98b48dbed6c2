let granule = Otfgc_heap.Layout.granule
let n_classes = 64
let max_cached_bytes = n_classes * granule

let cacheable ~size = size > 0 && size < max_cached_bytes

type bin = { mutable buf : int array; mutable len : int }

type t = {
  bins : bin option array; (* indexed by size in granules *)
  mutable pending_bytes : int;
  mutable pending_objects : int;
}

let create () =
  { bins = Array.make n_classes None; pending_bytes = 0; pending_objects = 0 }

let class_of ~size = (size + granule - 1) / granule

let bin_of t ~size =
  let c = class_of ~size in
  match t.bins.(c) with
  | Some b -> b
  | None ->
      let b = { buf = Array.make 16 0; len = 0 } in
      t.bins.(c) <- Some b;
      b

let get t ~size =
  match t.bins.(class_of ~size) with
  | None -> Otfgc_heap.Heap.nil
  | Some b ->
      if b.len = 0 then Otfgc_heap.Heap.nil
      else begin
        b.len <- b.len - 1;
        b.buf.(b.len)
      end

let put t ~size addr =
  let b = bin_of t ~size in
  if b.len = Array.length b.buf then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.buf 0 bigger 0 b.len;
    b.buf <- bigger
  end;
  b.buf.(b.len) <- addr;
  b.len <- b.len + 1

let level t ~size =
  match t.bins.(class_of ~size) with None -> 0 | Some b -> b.len

let note_issued t ~bytes =
  t.pending_bytes <- t.pending_bytes + bytes;
  t.pending_objects <- t.pending_objects + 1

let flush_pending t heap =
  if t.pending_objects > 0 || t.pending_bytes > 0 then begin
    Otfgc_heap.Heap.add_alloc_stats heap ~bytes:t.pending_bytes
      ~objects:t.pending_objects;
    t.pending_bytes <- 0;
    t.pending_objects <- 0
  end

let drain t f =
  Array.iter
    (function
      | None -> ()
      | Some b ->
          for i = 0 to b.len - 1 do
            f b.buf.(i)
          done;
          b.len <- 0)
    t.bins
