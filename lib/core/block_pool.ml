(* Per-size-class pools of reserved blocks — the sharded middle tier of
   the domains-substrate allocation path.

   The hot path used to be: mutator cache empty -> take the single heap
   lock -> pop blocks from the shared free list.  Every refill in every
   size class contended on that one lock.  The pool splits the contention
   by class: each class holds a stack of blocks already reserved from the
   heap (kind Allocated, color Blue — invisible to the sweep and to
   every collector walk, exactly like blocks in a mutator's own cache)
   behind its own mutex.  A refill in class c takes only lock c; two
   mutators refilling different classes never touch the same lock.  Only
   when a class pool runs dry does the restocking mutator additionally
   take the heap lock to reserve a batch from the free list.

   Lock ordering: class lock -> heap lock, never the reverse.  The
   collector takes the heap lock alone; it never touches a class lock
   (pooled blocks are Blue, so its walks skip them), so there is no
   cycle.  Draining (stall entry, run finale) takes one class lock at a
   time and nests the heap lock inside it, the same order. *)

let n_classes = Alloc_cache.n_classes + 1 (* + overflow slot, see class_of *)

let class_of ~size = Alloc_cache.class_of ~size

type shard = {
  lock : Mutex.t;
  mutable buf : int array;
  mutable len : int;
}

type t = { shards : shard array }

let create () =
  {
    shards =
      Array.init n_classes (fun _ ->
          { lock = Mutex.create (); buf = Array.make 16 0; len = 0 });
  }

(* Take class [cls]'s lock; returns [true] iff the fast try_lock failed
   (the caller counts it as a lock wait for that class). *)
let lock t ~cls =
  let s = t.shards.(cls) in
  if Mutex.try_lock s.lock then false
  else begin
    Mutex.lock s.lock;
    true
  end

(* Timed variant for the flight recorder: returns the nanoseconds the
   caller spent blocked (0 on the uncontended fast path; clamped to at
   least 1 when the try_lock failed, so "waited" stays decidable even
   if the clock resolution swallows the wait). *)
let lock_ns t ~cls =
  let s = t.shards.(cls) in
  if Mutex.try_lock s.lock then 0
  else begin
    let t0 = Otfgc_support.Monotonic_clock.now_ns () in
    Mutex.lock s.lock;
    Stdlib.max 1 (Otfgc_support.Monotonic_clock.now_ns () - t0)
  end

let unlock t ~cls = Mutex.unlock t.shards.(cls).lock

(* Pop/push require the class lock to be held by the caller. *)
let pop t ~cls =
  let s = t.shards.(cls) in
  if s.len = 0 then Otfgc_heap.Heap.nil
  else begin
    s.len <- s.len - 1;
    s.buf.(s.len)
  end

let push t ~cls addr =
  let s = t.shards.(cls) in
  if s.len = Array.length s.buf then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.buf 0 bigger 0 s.len;
    s.buf <- bigger
  end;
  s.buf.(s.len) <- addr;
  s.len <- s.len + 1

let level t ~cls =
  let s = t.shards.(cls) in
  Mutex.lock s.lock;
  let n = s.len in
  Mutex.unlock s.lock;
  n

(* Empty every shard, handing each block to [f] (class lock held during
   the call: [f] may nest the heap lock — class -> heap is the legal
   order). *)
let drain t f =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      for i = 0 to s.len - 1 do
        f s.buf.(i)
      done;
      s.len <- 0;
      Mutex.unlock s.lock)
    t.shards
