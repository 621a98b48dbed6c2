(* The event recorder for both substrates: per-process bounded rings of
   timestamped events, drained post-run into the Perfetto trace, the
   timeline, the report strips, the contention profile and the SLO
   latency report.

   The protocol is deliberately primitive so the record sites cost
   almost nothing:

   - every ring has exactly ONE writer (the process or domain it belongs
     to) and is only read after the run, so writes need no
     synchronisation at all — the ring is a plain int array and a plain
     sequence counter;
   - an event is a fixed-stride record of five ints (start, duration,
     kind tag, two payload words), written by five array stores;
   - a full ring overwrites its oldest entry and counts the loss
     ([dropped]), never blocking and never allocating;
   - the clock is fixed at [arm]: simulated cost units on the simulator,
     where recording must not perturb the schedule (reading the cost
     ledger charges nothing), monotonic ns on domains;
   - when the recorder is disarmed (the default) every record site
     reduces to one option check and no clock read.

   Ring registration (not recording) takes a mutex: it happens a handful
   of times per run, from whichever domain creates the mutator/worker.
   Draining ([events]) must only run after the writers have quiesced —
   the driver reads it post-run. *)

module Clock = Otfgc_support.Monotonic_clock

type kind =
  | Phase
  | Cycle
  | Handshake
  | Ack
  | Poll
  | Stall
  | Lock_wait
  | Steal
  | Idle
  | Colors_toggled
  | Promoted
  | Heap_grown

let kinds =
  [|
    Phase; Cycle; Handshake; Ack; Poll; Stall; Lock_wait; Steal; Idle;
    Colors_toggled; Promoted; Heap_grown;
  |]

let kind_tag = function
  | Phase -> 0
  | Cycle -> 1
  | Handshake -> 2
  | Ack -> 3
  | Poll -> 4
  | Stall -> 5
  | Lock_wait -> 6
  | Steal -> 7
  | Idle -> 8
  | Colors_toggled -> 9
  | Promoted -> 10
  | Heap_grown -> 11

let kind_name = function
  | Phase -> "phase"
  | Cycle -> "cycle"
  | Handshake -> "handshake"
  | Ack -> "ack"
  | Poll -> "poll"
  | Stall -> "stall"
  | Lock_wait -> "lock-wait"
  | Steal -> "steal"
  | Idle -> "idle"
  | Colors_toggled -> "colors-toggled"
  | Promoted -> "promoted"
  | Heap_grown -> "heap-grown"

type clock = Ns | Units of Cost.t

let read = function Ns -> Clock.now_ns () | Units c -> Cost.elapsed_multi c

let stride = 5

type ring = {
  track : string;
  tid : int;
  clock : clock;
  buf : int array;
  cap : int;  (* capacity in events *)
  mutable seq : int;  (* events ever written; single writer *)
  mutable polls : int;  (* safepoint polls counted (sampled emission) *)
}

type event = {
  track : string;
  tid : int;
  kind : kind;
  a : int;
  b : int;
  t0_ns : int;
  dur_ns : int;
}

type t = {
  mutable armed : bool;
  mutable clock : clock;
  capacity : int;
  reg : Mutex.t;  (* guards ring registration, never recording *)
  mutable rings : ring list;  (* newest registration first *)
  mutable collector : ring option;
  mutable handshakes : ring option;
  (* the open handshake (collector only): a flag, not a zero sentinel —
     a cost-unit clock can read 0 *)
  mutable hs_open : bool;
  mutable hs_t0 : int;
}

let default_capacity = 16384

let create ?(capacity = default_capacity) () =
  {
    armed = false;
    clock = Ns;
    capacity = Stdlib.max 16 capacity;
    reg = Mutex.create ();
    rings = [];
    collector = None;
    handshakes = None;
    hs_open = false;
    hs_t0 = 0;
  }

let armed t = t.armed
let units t = match t.clock with Units _ -> true | Ns -> false
let ring_now (r : ring) = read r.clock
let now_ns () = Clock.now_ns ()

(* Perfetto track ids: the collector and mutators keep Trace_export's
   historical scheme; helper GC workers and the dedicated handshake
   track sit in a high band so they can never collide with mutators. *)
let collector_tid = 0
let mutator_tid mid = 1 + mid
let worker_tid wid = 900 + wid
let handshake_tid = 990

let make_ring t ~track ~tid =
  let r =
    {
      track;
      tid;
      clock = t.clock;
      buf = Array.make (t.capacity * stride) 0;
      cap = t.capacity;
      seq = 0;
      polls = 0;
    }
  in
  Mutex.lock t.reg;
  t.rings <- r :: t.rings;
  Mutex.unlock t.reg;
  r

let arm ?units t =
  if not t.armed then begin
    t.clock <- (match units with Some c -> Units c | None -> Ns);
    t.collector <- Some (make_ring t ~track:"collector" ~tid:collector_tid);
    t.handshakes <- Some (make_ring t ~track:"handshakes" ~tid:handshake_tid);
    t.armed <- true
  end

let new_ring t ~track ~tid =
  if t.armed then Some (make_ring t ~track ~tid) else None

let collector_ring t = t.collector
let handshake_ring t = t.handshakes

let write r ~t0 ~dur kind ~a ~b =
  let i = r.seq mod r.cap * stride in
  r.buf.(i) <- t0;
  r.buf.(i + 1) <- dur;
  r.buf.(i + 2) <- kind_tag kind;
  r.buf.(i + 3) <- a;
  r.buf.(i + 4) <- b;
  r.seq <- r.seq + 1

let span r ?(b = 0) kind ~a ~t0 ~t1 =
  write r ~t0 ~dur:(Stdlib.max 0 (t1 - t0)) kind ~a ~b

let instant r ?(b = 0) kind ~a ~at = write r ~t0:at ~dur:0 kind ~a ~b

(* Safepoint polls fire on every mutator operation; counting them is one
   increment, and only every [poll_sample_interval]-th poll reads the
   clock and lands in the ring. *)
let poll_sample_interval = 1024

let poll r =
  r.polls <- r.polls + 1;
  if r.polls mod poll_sample_interval = 0 then
    instant r Poll ~a:r.polls ~at:(ring_now r)

(* Handshake spans live on their own track: a posted->complete interval
   can straddle collector phase spans (sync2 is posted before the card
   scan and completes after it), so nesting them on the collector track
   would violate the trace validator's containment invariant.  Only the
   collector calls these, so the open-handshake cells are plain. *)
let note_handshake_posted t =
  match t.handshakes with
  | Some r ->
      t.hs_t0 <- ring_now r;
      t.hs_open <- true
  | None -> ()

let note_handshake_completed t ~status =
  match t.handshakes with
  | Some r when t.hs_open ->
      span r Handshake ~a:status ~t0:t.hs_t0 ~t1:(ring_now r);
      t.hs_open <- false
  | _ -> ()

let rings t =
  Mutex.lock t.reg;
  let rs = t.rings in
  Mutex.unlock t.reg;
  List.rev rs

let clear t =
  List.iter
    (fun r ->
      r.seq <- 0;
      r.polls <- 0)
    (rings t);
  t.hs_open <- false

let ring_dropped r = Stdlib.max 0 (r.seq - r.cap)

(* The ring's last [n] surviving events, oldest first. *)
let ring_tail (r : ring) n =
  let seq = r.seq in
  let n = Stdlib.min n (Stdlib.min seq r.cap) in
  let out = ref [] in
  for k = seq - 1 downto seq - n do
    let i = k mod r.cap * stride in
    out :=
      {
        track = r.track;
        tid = r.tid;
        kind = kinds.(r.buf.(i + 2));
        a = r.buf.(i + 3);
        b = r.buf.(i + 4);
        t0_ns = r.buf.(i);
        dur_ns = r.buf.(i + 1);
      }
      :: !out
  done;
  !out

let recent t ~n = List.concat_map (fun r -> ring_tail r n) (rings t)

let events t =
  List.stable_sort
    (fun a b -> compare a.t0_ns b.t0_ns)
    (recent t ~n:max_int)

let sum f t = List.fold_left (fun acc r -> acc + f r) 0 (rings t)
let length = sum (fun r -> Stdlib.min r.seq r.cap)
let dropped = sum ring_dropped
let total_polls = sum (fun r -> r.polls)

let tracks t =
  List.sort
    (fun (_, a) (_, b) -> compare a b)
    (List.map (fun (r : ring) -> (r.track, r.tid)) (rings t))
