module Heap = Otfgc_heap.Heap
module Layout = Otfgc_heap.Layout
module Bitset = Otfgc_support.Bitset
open State

(* The outcome of one marking pass: a mark bit per heap granule (set at
   the start granule of every reachable object), the number of marked
   objects, and the first non-nil root or slot value found that is not
   an allocated object ([Heap.nil] when there is none). *)
type marks = { bits : Bitset.t; live : int; dangling : int }

(* Depth-first marking from every active mutator's roots and the globals.
   A value is marked when it is pushed, so each object enters the
   explicit stack at most once.  [Heap.is_object] is checked before the
   bitmap is touched: an out-of-range or unaligned value is recorded as
   dangling and never reaches [Bitset], which would raise. *)
let mark st =
  let heap = st.heap in
  let bits =
    Bitset.create (Layout.granules_of_bytes (Heap.max_capacity heap))
  in
  let stack = ref (Array.make 256 0) in
  let sp = ref 0 in
  let live = ref 0 in
  let dangling = ref Heap.nil in
  let visit x =
    if x <> Heap.nil then
      if Heap.is_object heap x then begin
        let i = Layout.granule_index x in
        if not (Bitset.mem bits i) then begin
          Bitset.add bits i;
          incr live;
          if !sp = Array.length !stack then begin
            let bigger = Array.make (2 * !sp) 0 in
            Array.blit !stack 0 bigger 0 !sp;
            stack := bigger
          end;
          Array.unsafe_set !stack !sp x;
          incr sp
        end
      end
      else if !dangling = Heap.nil then dangling := x
  in
  List.iter (fun m -> Mutator.iter_roots m visit) (State.active_mutators st);
  List.iter visit st.globals;
  while !sp > 0 do
    decr sp;
    Heap.iter_slots heap (Array.unsafe_get !stack !sp) visit
  done;
  { bits; live = !live; dangling = !dangling }

let check_safety st =
  let m = mark st in
  if m.dangling = Heap.nil then Ok ()
  else
    Error
      (Printf.sprintf "reachable address %d is not an allocated object"
         m.dangling)

let iter_garbage st f =
  let m = mark st in
  Heap.iter_objects st.heap (fun x ->
      if not (Bitset.mem m.bits (Layout.granule_index x)) then f x)

let garbage st =
  let acc = ref [] in
  iter_garbage st (fun x -> acc := x :: !acc);
  List.rev !acc

let live_count st = (mark st).live

let check_intergen_invariant st =
  let module Color = Otfgc_heap.Color in
  let module Card_table = Otfgc_heap.Card_table in
  let module Remset = Otfgc_heap.Remset in
  if not (Gc_config.is_generational st.cfg.Gc_config.mode) then Ok ()
  else begin
    let heap = st.heap in
    let cards = Heap.cards heap in
    let rs = Heap.remset heap in
    let bad = ref None in
    Heap.iter_objects heap (fun x ->
        if !bad = None && Color.equal (Heap.color heap x) Color.Black then
          Heap.iter_slots heap x (fun y ->
              if
                !bad = None
                && Heap.is_object heap y
                && not (Color.equal (Heap.color heap y) Color.Black)
              then begin
                let covered =
                  match st.cfg.Gc_config.intergen with
                  | Gc_config.Card_marking ->
                      Card_table.is_dirty cards (Card_table.card_of_addr cards x)
                  | Gc_config.Remembered_set -> Remset.mem rs x
                in
                if not covered then
                  bad :=
                    Some
                      (Printf.sprintf
                         "old object %d holds young %d with no dirty \
                          card/remset entry"
                         x y)
              end));
    match !bad with None -> Ok () | Some e -> Error e
  end
