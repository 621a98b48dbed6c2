type kind = Partial | Full | Non_gen

let kind_name = function
  | Partial -> "partial"
  | Full -> "full"
  | Non_gen -> "non-gen"

let kind_index = function Partial -> 0 | Full -> 1 | Non_gen -> 2

let kind_of_index = function
  | 0 -> Partial
  | 1 -> Full
  | 2 -> Non_gen
  | n -> invalid_arg (Printf.sprintf "Gc_stats.kind_of_index: %d" n)

type totals = {
  bytes_freed : int;
  objects_freed : int;
  promotions : int;
  dirty_cards : int;
  steals : int;
  steal_failures : int;
}

let zero =
  {
    bytes_freed = 0;
    objects_freed = 0;
    promotions = 0;
    dirty_cards = 0;
    steals = 0;
    steal_failures = 0;
  }

type cycle = {
  kind : kind;
  seq : int;
  mutable objects_traced : int;
  mutable intergen_scanned : int;
  mutable card_scan_bytes : int;
  mutable dirty_cards : int;
  mutable total_cards : int;
  mutable objects_freed : int;
  mutable bytes_freed : int;
  mutable promotions : int;
  mutable young_objects_at_start : int;
  mutable young_bytes_at_start : int;
  mutable live_objects_at_end : int;
  mutable live_bytes_at_end : int;
  mutable work : int;
  mutable pages_touched : int;
  mutable active_span : int;
  mutable floating_objects : int;
  mutable floating_bytes : int;
  mutable trace_workers : int;
  mutable steals : int;
  mutable steal_failures : int;
}

type t = {
  mutable completed : cycle list;
  mutable next_seq : int;
  (* Completed-cycle count, readable without synchronisation from other
     domains (the list itself is only prefix-consistent under races). *)
  n_done : int Atomic.t;
  (* Completed cycles per kind, indexed by [kind_index]. *)
  done_by_kind : int Atomic.t array;
  (* Cycles begun, per kind, bumped by [begin_cycle]: an allocation
     stall compares it with [done_by_kind] to tell whether a completed
     cycle began after the stall did. *)
  begun_by_kind : int Atomic.t array;
  (* Running sums over completed cycles, one immutable record swapped
     once per [end_cycle]: a reader on another domain gets every total
     from the same cycle boundary with one load. *)
  totals : totals Atomic.t;
}

let create () =
  {
    completed = [];
    next_seq = 0;
    n_done = Atomic.make 0;
    done_by_kind = Array.init 3 (fun _ -> Atomic.make 0);
    begun_by_kind = Array.init 3 (fun _ -> Atomic.make 0);
    totals = Atomic.make zero;
  }

let reset t =
  t.completed <- [];
  t.next_seq <- 0;
  Atomic.set t.n_done 0;
  (* A cycle in flight across the reset stays begun and completes
     later: drop from the begun count exactly the completions dropped,
     so begun minus completed is preserved even if [begin_cycle] or
     [end_cycle] runs concurrently on another domain. *)
  Array.iteri
    (fun k d ->
      let n = Atomic.exchange d 0 in
      ignore (Atomic.fetch_and_add t.begun_by_kind.(k) (-n) : int))
    t.done_by_kind;
  Atomic.set t.totals zero

let begin_cycle t kind =
  let c =
    {
      kind;
      seq = t.next_seq;
      objects_traced = 0;
      intergen_scanned = 0;
      card_scan_bytes = 0;
      dirty_cards = 0;
      total_cards = 0;
      objects_freed = 0;
      bytes_freed = 0;
      promotions = 0;
      young_objects_at_start = 0;
      young_bytes_at_start = 0;
      live_objects_at_end = 0;
      live_bytes_at_end = 0;
      work = 0;
      pages_touched = 0;
      active_span = 0;
      floating_objects = 0;
      floating_bytes = 0;
      trace_workers = 1;
      steals = 0;
      steal_failures = 0;
    }
  in
  t.next_seq <- t.next_seq + 1;
  Atomic.incr t.begun_by_kind.(kind_index kind);
  c

let add (s : totals) (c : cycle) =
  {
    bytes_freed = s.bytes_freed + c.bytes_freed;
    objects_freed = s.objects_freed + c.objects_freed;
    promotions = s.promotions + c.promotions;
    dirty_cards = s.dirty_cards + c.dirty_cards;
    steals = s.steals + c.steals;
    steal_failures = s.steal_failures + c.steal_failures;
  }

let end_cycle t c =
  t.completed <- c :: t.completed;
  Atomic.incr t.done_by_kind.(kind_index c.kind);
  (* a compare-and-set loop, not a set: a [reset] on another domain
     between the load and the swap must not be overwritten *)
  let rec publish () =
    let s = Atomic.get t.totals in
    if not (Atomic.compare_and_set t.totals s (add s c)) then publish ()
  in
  publish ();
  Atomic.incr t.n_done

let n_completed t = Atomic.get t.n_done
let n_completed_of t kind = Atomic.get t.done_by_kind.(kind_index kind)
let n_begun_of t kind = Atomic.get t.begun_by_kind.(kind_index kind)
let totals t = Atomic.get t.totals

let cycles t = List.rev t.completed

let count t kind =
  List.length (List.filter (fun c -> c.kind = kind) t.completed)

let fold_kind t kind f init =
  List.fold_left (fun acc c -> if c.kind = kind then f acc c else acc) init t.completed

let mean t kind metric =
  let n, s = fold_kind t kind (fun (n, s) c -> (n + 1, s +. metric c)) (0, 0.) in
  if n = 0 then 0. else s /. float_of_int n

let sum t kind metric = fold_kind t kind (fun s c -> s +. metric c) 0.

let has t kind = List.exists (fun c -> c.kind = kind) t.completed
