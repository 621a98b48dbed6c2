module Heap = Otfgc_heap.Heap
open State

(* One marking pass into the state's scratch: every active mutator's
   roots in registration order, then the globals, then the stack drained
   depth-first ([Heap.mark] marks at push, so each object is pushed at
   most once). *)
let mark st =
  let heap = st.heap and m = st.marks in
  Heap.clear_marks heap m;
  State.iter_mutators st (fun mu ->
      if Mutator.active mu then Mutator.iter_roots mu (Heap.mark heap m));
  List.iter (Heap.mark heap m) st.globals;
  Heap.drain_marks heap m;
  m

let check_safety st =
  let d = Heap.first_dangling (mark st) in
  if d = Heap.nil then Ok ()
  else Error (Printf.sprintf "reachable address %d is not an allocated object" d)

let floating st =
  if st.parallel then
    invalid_arg "Oracle.floating: reserved blocks make the count inexact on domains";
  let m = mark st in
  ( Heap.object_count st.heap - Heap.live_objects m,
    Heap.allocated_bytes st.heap - Heap.live_bytes m )

let iter_garbage st f =
  let m = mark st in
  Heap.iter_objects st.heap (fun x -> if not (Heap.is_marked m x) then f x)

let garbage st =
  let acc = ref [] in
  iter_garbage st (fun x -> acc := x :: !acc);
  List.rev !acc

let live_count st = Heap.live_objects (mark st)

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
