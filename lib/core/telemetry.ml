module Histogram = Otfgc_support.Histogram

type t = {
  mutable enabled : bool;
  (* event counters: bare int increments, always on *)
  mutable barrier_updates : int;
  mutable yellow_fires : int;
  mutable handshake_acks : int;
  mutable stalls : int;
  mutable card_marks : int;
  mutable remset_records : int;
  lock_waits : int array; (* per allocation size class; last slot = overflow *)
  (* latency instruments, recorded only when enabled *)
  handshake_latency : Histogram.t array;  (* indexed by Status.index *)
  stall_latency : Histogram.t;
  cycle_progress : Histogram.t;
  mutable handshake_posted_at : int;
}

(* one per alloc-cache size class (64) plus an overflow slot for the
   ceiling class at coarse granules *)
let n_lock_classes = 65

let create () =
  {
    enabled = false;
    barrier_updates = 0;
    yellow_fires = 0;
    handshake_acks = 0;
    stalls = 0;
    card_marks = 0;
    remset_records = 0;
    lock_waits = Array.make n_lock_classes 0;
    handshake_latency = Array.init 3 (fun _ -> Histogram.create ());
    stall_latency = Histogram.create ();
    cycle_progress = Histogram.create ();
    handshake_posted_at = 0;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let reset t =
  t.barrier_updates <- 0;
  t.yellow_fires <- 0;
  t.handshake_acks <- 0;
  t.stalls <- 0;
  t.card_marks <- 0;
  t.remset_records <- 0;
  Array.fill t.lock_waits 0 n_lock_classes 0;
  Array.iter Histogram.clear t.handshake_latency;
  Histogram.clear t.stall_latency;
  Histogram.clear t.cycle_progress;
  t.handshake_posted_at <- 0

(* Add one actor's telemetry into a total: counters add, histograms
   merge sample streams. *)
let merge_into ~src ~dst =
  dst.barrier_updates <- dst.barrier_updates + src.barrier_updates;
  dst.yellow_fires <- dst.yellow_fires + src.yellow_fires;
  dst.handshake_acks <- dst.handshake_acks + src.handshake_acks;
  dst.stalls <- dst.stalls + src.stalls;
  dst.card_marks <- dst.card_marks + src.card_marks;
  dst.remset_records <- dst.remset_records + src.remset_records;
  for i = 0 to n_lock_classes - 1 do
    dst.lock_waits.(i) <- dst.lock_waits.(i) + src.lock_waits.(i)
  done;
  Array.iteri
    (fun i h -> Histogram.add_into ~src:h ~dst:dst.handshake_latency.(i))
    src.handshake_latency;
  Histogram.add_into ~src:src.stall_latency ~dst:dst.stall_latency;
  Histogram.add_into ~src:src.cycle_progress ~dst:dst.cycle_progress

(* counters *)
let hit_barrier t = t.barrier_updates <- t.barrier_updates + 1
let hit_yellow t = t.yellow_fires <- t.yellow_fires + 1
let hit_ack t = t.handshake_acks <- t.handshake_acks + 1
let hit_stall t = t.stalls <- t.stalls + 1
let hit_card_mark t = t.card_marks <- t.card_marks + 1
let hit_remset_record t = t.remset_records <- t.remset_records + 1

let hit_lock_wait t ~cls =
  let i = if cls < 0 then 0 else Stdlib.min cls (n_lock_classes - 1) in
  t.lock_waits.(i) <- t.lock_waits.(i) + 1

let barrier_updates t = t.barrier_updates
let yellow_fires t = t.yellow_fires
let handshake_acks t = t.handshake_acks
let stalls t = t.stalls
let card_marks t = t.card_marks
let remset_records t = t.remset_records
let lock_waits t = Array.copy t.lock_waits
let lock_waits_total t = Array.fold_left ( + ) 0 t.lock_waits

(* instruments *)
let handshake_posted t ~at = if t.enabled then t.handshake_posted_at <- at

let handshake_completed t status ~at =
  if t.enabled then
    Histogram.record t.handshake_latency.(Status.index status)
      (at - t.handshake_posted_at)

let record_stall t duration =
  if t.enabled then Histogram.record t.stall_latency duration

let record_progress t units =
  if t.enabled then Histogram.record t.cycle_progress units

let handshake_latency t status = t.handshake_latency.(Status.index status)
let stall_latency t = t.stall_latency
let cycle_progress t = t.cycle_progress
