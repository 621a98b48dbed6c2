let nil = Otfgc_heap.Heap.nil

type t = {
  id : int;
  name : string;
  (* Atomic so the real-domains substrate's three-handshake protocol is a
     genuine wait-free poll: the collector reads every mutator's status
     word, each mutator CASes only its own.  Under the cooperative
     substrate the atomic is uncontended and the simulated schedule is
     untouched (get/set are not yield points). *)
  status : Status.t Atomic.t;
  active : bool Atomic.t;
  regs : int array;
  mutable stack : int array;
  mutable sp : int;
  (* Real-domains substrate extensions; unused (and cost-free) under the
     cooperative substrate. *)
  cache : Alloc_cache.t;
  mutable own_cost : Cost.t option;
  mutable own_telemetry : Telemetry.t option;
  mutable ring : Flight_recorder.ring option;
      (** event-recorder track (recorder armed) *)
}

let create ~id ~name ~n_regs =
  if n_regs < 0 then invalid_arg "Mutator.create: negative register count";
  {
    id;
    name;
    status = Atomic.make Status.Async;
    active = Atomic.make true;
    regs = Array.make n_regs nil;
    stack = Array.make 16 nil;
    sp = 0;
    cache = Alloc_cache.create ();
    own_cost = None;
    own_telemetry = None;
    ring = None;
  }

let id t = t.id
let name t = t.name
let status t = Atomic.get t.status
let set_status t s = Atomic.set t.status s
let active t = Atomic.get t.active
let retire t = Atomic.set t.active false

let cache t = t.cache
let own_cost t = t.own_cost
let own_telemetry t = t.own_telemetry

let set_own_ledgers t cost telemetry =
  t.own_cost <- Some cost;
  t.own_telemetry <- Some telemetry

let ring t = t.ring
let set_ring t r = t.ring <- r

let n_regs t = Array.length t.regs
let get_reg t i = t.regs.(i)
let set_reg t i v = t.regs.(i) <- v
let clear_reg t i = t.regs.(i) <- nil

let push t v =
  if t.sp = Array.length t.stack then begin
    let bigger = Array.make (2 * t.sp) nil in
    Array.blit t.stack 0 bigger 0 t.sp;
    t.stack <- bigger
  end;
  t.stack.(t.sp) <- v;
  t.sp <- t.sp + 1

let pop t =
  if t.sp = 0 then invalid_arg "Mutator.pop: empty stack";
  t.sp <- t.sp - 1;
  let v = t.stack.(t.sp) in
  t.stack.(t.sp) <- nil;
  v

let stack_depth t = t.sp

let iter_roots t f =
  Array.iter (fun v -> if v <> nil then f v) t.regs;
  for i = 0 to t.sp - 1 do
    if t.stack.(i) <> nil then f t.stack.(i)
  done
