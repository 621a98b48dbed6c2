(* Growable int-array stack.  The previous representation was a cons-cell
   stack, which allocated one minor-heap cell per shaded object; pushes
   and pops are now stores into a flat buffer that only the occasional
   doubling reallocates.  LIFO order is identical, so trace order — and
   therefore every simulated figure — is unchanged.

   Under the real-domains substrate mutators and the collector push and
   pop concurrently, so the driver arms a mutex ([set_locked]); the
   cooperative substrate leaves it off and pays nothing.  The mutex also
   carries the publication ordering the DLG barrier needs: a mutator's
   plain color-byte write (shading) happens-before its push's unlock,
   which happens-before the collector's pop of the same entry.

   A width-1 collection crew pops the shared queue ([pop_worker]
   without deques).  With multiple collector workers ([set_workers n],
   n > 1) the queue becomes sharded: each worker owns a Chase–Lev deque
   and pushes/pops it lock-free; other workers steal from the top.
   Mutator barrier pushes still land in the shared mutex queue (mutators
   have no deque and need the mutex's publication edge anyway); workers
   drain the shared queue opportunistically when their own deque runs
   dry.  The deque's SC atomics provide the same publication edge for
   worker-to-worker transfers: a worker's plain color write
   happens-before its deque push's atomic bottom store, which
   happens-before a thief's top CAS claiming the entry. *)

module Ws_deque = Otfgc_sched.Ws_deque

type t = {
  mutable buf : int array;
  mutable size : int;
  mutable max_size : int;
  mutable lock : Mutex.t option;
  mutable deques : Ws_deque.t array; (* [||] unless set_workers n>1 *)
  worker_key : int Domain.DLS.key; (* -1 = not a collector worker *)
}

let create () =
  {
    buf = Array.make 64 0;
    size = 0;
    max_size = 0;
    lock = None;
    deques = [||];
    worker_key = Domain.DLS.new_key (fun () -> -1);
  }

let set_locked t v =
  t.lock <- (if v then Some (Mutex.create ()) else None)

let set_workers t n =
  t.deques <- (if n > 1 then Array.init n (fun _ -> Ws_deque.create ()) else [||])

let n_workers t = Array.length t.deques
let set_worker_id t wid = Domain.DLS.set t.worker_key wid
let worker_id t = Domain.DLS.get t.worker_key

let push_unlocked t x =
  let n = t.size in
  if n = Array.length t.buf then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit t.buf 0 bigger 0 n;
    t.buf <- bigger
  end;
  Array.unsafe_set t.buf n x;
  t.size <- n + 1;
  if t.size > t.max_size then t.max_size <- t.size

let pop_unlocked t =
  if t.size = 0 then None
  else begin
    let n = t.size - 1 in
    t.size <- n;
    Some (Array.unsafe_get t.buf n)
  end

let push_shared t x =
  match t.lock with
  | None -> push_unlocked t x
  | Some l ->
      Mutex.lock l;
      push_unlocked t x;
      Mutex.unlock l

let push t x =
  if Array.length t.deques = 0 then push_shared t x
  else
    let wid = Domain.DLS.get t.worker_key in
    if wid >= 0 then Ws_deque.push t.deques.(wid) x else push_shared t x

let pop t =
  match t.lock with
  | None -> pop_unlocked t
  | Some l ->
      Mutex.lock l;
      let r = pop_unlocked t in
      Mutex.unlock l;
      r

let pop_worker t ~w =
  if Array.length t.deques = 0 then pop t else Ws_deque.pop t.deques.(w)

let steal t ~victim = Ws_deque.steal t.deques.(victim)

let is_empty t =
  let shared_empty =
    match t.lock with
    | None -> t.size = 0
    | Some l ->
        Mutex.lock l;
        let r = t.size = 0 in
        Mutex.unlock l;
        r
  in
  shared_empty && Array.for_all Ws_deque.is_empty t.deques

let clear t =
  (match t.lock with
  | None -> t.size <- 0
  | Some l ->
      Mutex.lock l;
      t.size <- 0;
      Mutex.unlock l);
  Array.iter Ws_deque.clear t.deques

let size t =
  t.size + Array.fold_left (fun acc d -> acc + Ws_deque.size d) 0 t.deques

let max_size t =
  t.max_size + Array.fold_left (fun acc d -> acc + Ws_deque.max_size d) 0 t.deques
