(* Domains workloads: one benchmark-owned client domain serves requests
   against a key-value table that lives in the collected heap, next to the
   collector domain (two busy domains).  Closed loop: the next request
   starts when the last one returns.

   The table is a spine of fixed-arity nodes, one 48-byte record per key
   whose first scalar word is a tag (key, version).  The client keeps a
   shadow of every key's version in OCaml memory; a GET whose tag
   disagrees with it fails the request.  A pass is a round per
   [round_seconds] of its time, each with a fresh runtime: set up, serve
   for [round_seconds], then check the quiescent heap. *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Parallel = Otfgc_sched.Parallel
module Substrate = Otfgc_sched.Substrate
module Rng = Otfgc_support.Rng
module Json = Otfgc_support.Json
module Fr = Flight_recorder
module Trace_export = Otfgc_metrics.Trace_export
open Common

type spec = {
  max_mb : int;  (** heap 1 MB -> [max_mb] *)
  entries : int;
  chain : int;  (** garbage objects allocated per request, linked *)
  gets : int;
  put_prob : float;
}

let churn = { max_mb = 4; entries = 2_000; chain = 16; gets = 2; put_prob = 0.01 }
let kv = { max_mb = 8; entries = 60_000; chain = 2; gets = 8; put_prob = 1.0 }

(* On a shared host one round of a run may serve 30 % fewer requests than
   the next; the median over many rounds damps that.  Each round costs a
   set-up and a quiescent check (0.45 s on kv), so rounds are not
   shorter. *)
let round_seconds = 2.0

let obj_size = 48
let slots_per_node = 7
let node_slots = slots_per_node + 1 (* slot 0 links the spine *)
let node_size = 16 + (8 * node_slots)

(* mutator registers *)
let reg_head = 0
let reg_new = 1
let reg_chain = 2

let tag key version = (key lsl 32) lor version

(* ------------------------------------------------------------------ *)
(* Traced pass: client-side spans around every runtime call            *)
(* ------------------------------------------------------------------ *)

let k_alloc = 0
let k_store = 1
let k_load = 2
let k_request = 3
let span_names = [| "alloc"; "store"; "load"; "request" |]
let slow_ns = 1_000_000
let keep_one_in = 64
let client_tid = 995

type tracer = {
  calls : int array;
  call_ns : int array;
  alloc_lat : Samples.t;
  store_lat : Samples.t;
  mutable alloc_slow : int;
  mutable alloc_max : int;
  mutable self_ns : int;
  scratch : int array;  (** this request's calls: kind, t0, dur *)
  mutable n_scratch : int;
  mutable req_calls_ns : int;
  kept : Samples.t;  (** kept spans: kind, request id, t0, dur *)
}

let new_tracer () =
  {
    calls = Array.make 3 0;
    call_ns = Array.make 3 0;
    alloc_lat = Samples.create (1 lsl 20);
    store_lat = Samples.create (1 lsl 20);
    alloc_slow = 0;
    alloc_max = 0;
    self_ns = 0;
    scratch = Array.make (3 * 128) 0;
    n_scratch = 0;
    req_calls_ns = 0;
    kept = Samples.create (1 lsl 16);
  }

let note tr k t0 t1 =
  let d = t1 - t0 in
  tr.calls.(k) <- tr.calls.(k) + 1;
  tr.call_ns.(k) <- tr.call_ns.(k) + d;
  tr.req_calls_ns <- tr.req_calls_ns + d;
  if k = k_alloc then begin
    Samples.add tr.alloc_lat d;
    if d > slow_ns then tr.alloc_slow <- tr.alloc_slow + 1;
    if d > tr.alloc_max then tr.alloc_max <- d
  end
  else if k = k_store then Samples.add tr.store_lat d;
  let i = tr.n_scratch in
  if i + 3 <= Array.length tr.scratch then begin
    tr.scratch.(i) <- k;
    tr.scratch.(i + 1) <- t0;
    tr.scratch.(i + 2) <- d;
    tr.n_scratch <- i + 3
  end

let keep tr k id t0 d =
  Samples.add tr.kept k;
  Samples.add tr.kept id;
  Samples.add tr.kept t0;
  Samples.add tr.kept d

(* Keep every slow request and one in [keep_one_in] of the others, each
   with its runtime calls as children sharing the request id. *)
let end_request tr ~id ~t0 ~t1 =
  let d = t1 - t0 in
  tr.self_ns <- tr.self_ns + (d - tr.req_calls_ns);
  if d > slow_ns || id mod keep_one_in = 0 then begin
    keep tr k_request id t0 d;
    let i = ref 0 in
    while !i < tr.n_scratch do
      keep tr tr.scratch.(!i) id tr.scratch.(!i + 1) tr.scratch.(!i + 2);
      i := !i + 3
    done
  end;
  tr.n_scratch <- 0;
  tr.req_calls_ns <- 0

(* ------------------------------------------------------------------ *)
(* The client                                                          *)
(* ------------------------------------------------------------------ *)

type client = {
  rt : Runtime.t;
  m : Mutator.t;
  spec : spec;
  rng : Rng.t;
  nodes : int array;
  shadow : int array;
  mutable tr : tracer option;
  mutable alloc_bytes : int;
}

let alloc c ~n_slots =
  c.alloc_bytes <- c.alloc_bytes + obj_size;
  match c.tr with
  | None -> Runtime.alloc c.rt c.m ~size:obj_size ~n_slots
  | Some tr ->
      let t0 = now () in
      let a = Runtime.alloc c.rt c.m ~size:obj_size ~n_slots in
      note tr k_alloc t0 (now ());
      a

let store c ~x ~i ~y =
  match c.tr with
  | None -> Runtime.store c.rt c.m ~x ~i ~y
  | Some tr ->
      let t0 = now () in
      Runtime.store c.rt c.m ~x ~i ~y;
      note tr k_store t0 (now ())

let store_data c ~x ~i ~v =
  match c.tr with
  | None -> Runtime.store_data c.rt c.m ~x ~i ~v
  | Some tr ->
      let t0 = now () in
      Runtime.store_data c.rt c.m ~x ~i ~v;
      note tr k_store t0 (now ())

let load c ~x ~i =
  match c.tr with
  | None -> Runtime.load c.rt c.m ~x ~i
  | Some tr ->
      let t0 = now () in
      let v = Runtime.load c.rt c.m ~x ~i in
      note tr k_load t0 (now ());
      v

let load_data c ~x ~i =
  match c.tr with
  | None -> Runtime.load_data c.rt c.m ~x ~i
  | Some tr ->
      let t0 = now () in
      let v = Runtime.load_data c.rt c.m ~x ~i in
      note tr k_load t0 (now ());
      v

let node_of k = k / slots_per_node
let slot_of k = 1 + (k mod slots_per_node)

(* A fresh record stored into an old table slot: an old->young barrier
   store, a card mark, later a promotion, and the old record's tenured
   death.

   A record stored while the client is inside a handshake window (status
   not [Async]) stays rooted on the mutator stack until the client is back
   in [Async].  On real domains the collector's two-store color toggle is
   published only by the next handshake post, so a mutator in the window
   can allocate with, or shade against, a half-toggled color pair; a young
   record whose only reference is an old slot is then neither shaded nor
   card-scanned and is swept while reachable (about one kv table build in
   150 lost a record; the simulator, which reads both colors in one step,
   cannot show it).  Rooting it until the third-handshake root marking
   closes that gap.  This is a workaround for a runtime bug: delete the
   hold (the drain and the [push]) once [Collector] publishes the toggle
   atomically; README.md, "Known substrate race". *)
let put c k =
  if Status.equal (Mutator.status c.m) Status.Async then
    while Mutator.stack_depth c.m > 0 do
      ignore (Mutator.pop c.m : int)
    done;
  let v = c.shadow.(k) + 1 in
  let r = alloc c ~n_slots:0 in
  Mutator.set_reg c.m reg_new r;
  store_data c ~x:r ~i:0 ~v:(tag k v);
  store c ~x:c.nodes.(node_of k) ~i:(slot_of k) ~y:r;
  Mutator.clear_reg c.m reg_new;
  if not (Status.equal (Mutator.status c.m) Status.Async) then Mutator.push c.m r;
  c.shadow.(k) <- v

(* [r] needs no register: only this client writes the table, so the
   record stays reachable from it until the next PUT. *)
let get c k =
  let r = load c ~x:c.nodes.(node_of k) ~i:(slot_of k) in
  r <> Heap.nil && load_data c ~x:r ~i:0 = tag k c.shadow.(k)

let request c =
  for i = 1 to c.spec.chain do
    let o = alloc c ~n_slots:1 in
    Mutator.set_reg c.m reg_new o;
    if i > 1 then store c ~x:o ~i:0 ~y:(Mutator.get_reg c.m reg_chain);
    Mutator.set_reg c.m reg_chain o;
    Mutator.clear_reg c.m reg_new
  done;
  let ok = ref true in
  for _ = 1 to c.spec.gets do
    if not (get c (Rng.int c.rng c.spec.entries)) then ok := false
  done;
  if Rng.chance c.rng c.spec.put_prob then put c (Rng.int c.rng c.spec.entries);
  Mutator.clear_reg c.m reg_chain;
  !ok

let build c =
  for j = 0 to Array.length c.nodes - 1 do
    let node = Runtime.alloc c.rt c.m ~size:node_size ~n_slots:node_slots in
    Mutator.set_reg c.m reg_new node;
    let head = Mutator.get_reg c.m reg_head in
    if head <> Heap.nil then Runtime.store c.rt c.m ~x:node ~i:0 ~y:head;
    Mutator.set_reg c.m reg_head node;
    Mutator.clear_reg c.m reg_new;
    c.nodes.(j) <- node
  done;
  for k = 0 to c.spec.entries - 1 do
    put c k
  done;
  (* a global root keeps the table for the quiescent checks after the
     client retires *)
  Runtime.add_global c.rt (Mutator.get_reg c.m reg_head);
  ignore (Runtime.collect_and_wait c.rt c.m ~full:true : Gc_stats.cycle)

(* ------------------------------------------------------------------ *)
(* One round                                                           *)
(* ------------------------------------------------------------------ *)

type acc = {
  tracer : tracer option;
  lat : Samples.t;  (** request latencies, every round of the pass *)
  hs_lat : Samples.t;
  mutable repeats : repeat list;
  mutable capacities : float list;
  mutable window_ns : int;
  mutable req_ns : int;
  mutable requests : int;
  mutable failed : int;
  mutable mismatches : int;  (** requests with a GET that disagreed *)
  mutable ooms : int;  (** requests aborted by [Runtime.Out_of_memory] *)
  mutable errors : string list;
  mutable cost_units : int;
  mutable alloc_bytes : int;
  (* traced, from the collector and handshake tracks *)
  mutable cycle_ns : int;
  phase_ns : int array;  (** clear, cards, trace, sweep *)
  mutable hs_ns : int;
  mutable layers : (string * float) list list;
  mutable trace : Json.t option;
}

let new_acc ~traced =
  {
    tracer = (if traced then Some (new_tracer ()) else None);
    lat = Samples.create (1 lsl 21);
    hs_lat = Samples.create 1024;
    repeats = [];
    capacities = [];
    window_ns = 0;
    req_ns = 0;
    requests = 0;
    failed = 0;
    mismatches = 0;
    ooms = 0;
    errors = [];
    cost_units = 0;
    alloc_bytes = 0;
    cycle_ns = 0;
    phase_ns = Array.make 4 0;
    hs_ns = 0;
    layers = [];
    trace = None;
  }

(* What the client records about its measured window. *)
type window = {
  mutable from : int;  (** index of the window's first request in [acc.lat] *)
  mutable t0 : int;
  mutable t1 : int;
  mutable fr_offset : int;  (** recorder clock minus [now], read once *)
  mutable cycles0 : int;
  mutable cycles1 : int;
  mutable cost0 : cost_totals;
  mutable cost1 : cost_totals;
  mutable ctr0 : counters;
  mutable ctr1 : counters;
  mutable gc0 : Gc.stat;
  mutable gc1 : Gc.stat;
  mutable capacity : int;
}

let ledgers rt m =
  let own f = match f m with Some x -> [ x ] | None -> [] in
  ( cost_totals (Runtime.cost rt :: own Mutator.own_cost),
    counters (Runtime.telemetry rt :: own Mutator.own_telemetry) )

let serve c acc w ~seconds =
  let st = Runtime.stats c.rt in
  let open_window () =
    let cost, ctr = ledgers c.rt c.m in
    w.cost0 <- cost;
    w.ctr0 <- ctr;
    w.cycles0 <- Gc_stats.n_completed st;
    w.gc0 <- Gc.quick_stat ();
    w.fr_offset <- Fr.now_ns () - now ();
    c.alloc_bytes <- 0;
    w.from <- Samples.count acc.lat;
    c.tr <- acc.tracer;
    w.t0 <- now ()
  in
  open_window ();
  let deadline = w.t0 + int_of_float (seconds *. 1e9) in
  let id = ref 0 in
  let t0 = ref w.t0 in
  while !t0 < deadline do
    let ok =
      try
        request c
        || begin
             acc.mismatches <- acc.mismatches + 1;
             false
           end
      with Runtime.Out_of_memory ->
        Mutator.clear_reg c.m reg_new;
        Mutator.clear_reg c.m reg_chain;
        acc.ooms <- acc.ooms + 1;
        false
    in
    let t1 = now () in
    Samples.add acc.lat (t1 - !t0);
    acc.req_ns <- acc.req_ns + (t1 - !t0);
    acc.requests <- acc.requests + 1;
    if not ok then acc.failed <- acc.failed + 1;
    (match c.tr with Some tr -> end_request tr ~id:!id ~t0:!t0 ~t1 | None -> ());
    incr id;
    t0 := now ()
  done;
  w.t1 <- now ();
  c.tr <- None;
  w.cycles1 <- Gc_stats.n_completed st;
  w.gc1 <- Gc.quick_stat ();
  w.capacity <- Heap.capacity (Runtime.heap c.rt);
  let cost, ctr = ledgers c.rt c.m in
  w.cost1 <- cost;
  w.ctr1 <- ctr

(* At quiescence (client joined, collector idle): the safety and
   inter-generational invariants, two full collections, then no garbage
   left, a sound heap, and every table entry equal to its shadow. *)
let quiesce c =
  Substrate.set_current Substrate.Domains;
  let rt = c.rt in
  let st = Runtime.state rt in
  let stats = Runtime.stats rt in
  let idle () =
    (not (Atomic.get st.State.collecting))
    && Atomic.get st.State.gc_request = State.No_request
  in
  Substrate.wait_until idle;
  let invariants =
    check "Oracle.check_safety" (Oracle.check_safety st)
    @ check "Oracle.check_intergen_invariant" (Oracle.check_intergen_invariant st)
  in
  Runtime.drain_pools rt;
  for _ = 1 to 2 do
    let n0 = Gc_stats.n_completed stats in
    Atomic.set st.State.gc_request State.Want_full;
    Substrate.wait_until (fun () -> Gc_stats.n_completed stats > n0 && idle ())
  done;
  let heap = Runtime.heap rt in
  let garbage = List.length (Oracle.garbage st) in
  let bad = ref 0 in
  let first = ref "" in
  Array.iteri
    (fun k v ->
      let node = c.nodes.(node_of k) in
      let r = if node = Heap.nil then Heap.nil else Heap.get_slot heap node (slot_of k) in
      let found = if r = Heap.nil then -1 else Heap.get_data heap r 0 in
      if found <> tag k v then begin
        if !bad = 0 then
          first :=
            Printf.sprintf " (first: key %d version %d, object %d holds key %d version %d)" k
              v r (found asr 32) (found land 0xffffffff);
        incr bad
      end)
    c.shadow;
  Runtime.shutdown rt;
  invariants
  @ (if garbage = 0 then []
     else [ Printf.sprintf "Oracle.garbage: %d objects after two full collections" garbage ])
  @ check "Heap.check" (Heap.check ~check_slots:true heap)
  @
  if !bad = 0 then []
  else [ Printf.sprintf "table: %d entries differ from the shadow%s" !bad !first ]

let clip ~lo ~hi t0 d = max 0 (min hi (t0 + d) - max lo t0)

let trace_doc ~workload fr ~offset kept =
  let doc = Trace_export.of_flight ~workload fr in
  let base = match Fr.events fr with [] -> 0 | e :: _ -> e.Fr.t0_ns in
  let us ns = Otfgc_support.Monotonic_clock.ns_to_us (ns + offset - base) in
  let ev i = Samples.get kept i in
  let spans = ref [] in
  for j = (Samples.count kept / 4) - 1 downto 0 do
    let k = ev (4 * j) and id = ev ((4 * j) + 1) in
    let t0 = ev ((4 * j) + 2) and d = ev ((4 * j) + 3) in
    let ts = us t0 in
    spans :=
      Json.Obj
        [
          ("name", Json.String span_names.(k));
          ("ph", Json.String "X");
          ("ts", Json.Int ts);
          ("dur", Json.Int (us (t0 + d) - ts));
          ("pid", Json.Int 1);
          ("tid", Json.Int client_tid);
          ("args", Json.Obj [ ("req", Json.Int id) ]);
        ]
      :: !spans
  done;
  let meta =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int client_tid);
        ("args", Json.Obj [ ("name", Json.String "client requests") ]);
      ]
  in
  match doc with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "traceEvents", Json.List evs -> ("traceEvents", Json.List (evs @ (meta :: !spans)))
             | f -> f)
           fields)
  | other -> other

(* Collector and handshake tracks only: the mutator ring overflows. *)
let recorder_layers acc fr ~lo ~hi =
  List.iter
    (fun (e : Fr.event) ->
      let d = clip ~lo ~hi e.Fr.t0_ns e.Fr.dur_ns in
      if e.Fr.tid = Fr.collector_tid then begin
        match e.Fr.kind with
        | Fr.Cycle -> acc.cycle_ns <- acc.cycle_ns + d
        | Fr.Phase when e.Fr.a >= 0 && e.Fr.a < 4 ->
            acc.phase_ns.(e.Fr.a) <- acc.phase_ns.(e.Fr.a) + d
        | _ -> ()
      end
      else if
        e.Fr.tid = Fr.handshake_tid && e.Fr.kind = Fr.Handshake && e.Fr.t0_ns >= lo
        && e.Fr.t0_ns < hi
      then begin
        acc.hs_ns <- acc.hs_ns + e.Fr.dur_ns;
        Samples.add acc.hs_lat e.Fr.dur_ns
      end)
    (Fr.events fr)

let round acc ~workload ~seed ~seconds ~corrupt ~last spec =
  let t_create = now () in
  let heap_config =
    { Heap.initial_bytes = 1 lsl 20; max_bytes = spec.max_mb lsl 20; card_size = 16 }
  in
  let rt = Runtime.create ~heap_config ~gc_config:Gc_config.default () in
  Runtime.set_fine_grained rt false;
  Runtime.set_parallel rt true;
  Runtime.set_gc_workers rt 1;
  if acc.tracer <> None then Runtime.arm_recorder rt;
  let m = Runtime.new_mutator rt ~name:"client" () in
  let n_nodes = (spec.entries + slots_per_node - 1) / slots_per_node in
  let c =
    {
      rt;
      m;
      spec;
      rng = Rng.make seed;
      nodes = Array.make n_nodes Heap.nil;
      shadow = Array.make spec.entries 0;
      tr = None;
      alloc_bytes = 0;
    }
  in
  let w =
    {
      from = 0;
      t0 = 0;
      t1 = 0;
      fr_offset = 0;
      cycles0 = 0;
      cycles1 = 0;
      cost0 = cost_totals [];
      cost1 = cost_totals [];
      ctr0 = counters [];
      ctr1 = counters [];
      gc0 = Gc.quick_stat ();
      gc1 = Gc.quick_stat ();
      capacity = 0;
    }
  in
  let errors = ref [] in
  let par =
    Parallel.create ~on_quiesce:(fun () -> errors := !errors @ quiesce c) ()
  in
  Parallel.spawn par ~daemon:true ~name:"collector" (fun () ->
      ignore (pin_to_cpu 1 : bool);
      Runtime.collector_loop rt);
  Parallel.spawn par ~name:"client" (fun () ->
      ignore (pin_to_cpu 0 : bool);
      (try
         build c;
         if corrupt then c.shadow.(0) <- c.shadow.(0) + 1;
         serve c acc w ~seconds
       with e -> errors := [ "client: " ^ Printexc.to_string e ]);
      Runtime.retire_mutator rt m);
  Parallel.run par;
  Substrate.set_current Substrate.Sim;
  let window = w.t1 - w.t0 in
  acc.repeats <-
    repeat acc.lat ~from:w.from ~setup:(s_of_ns (w.t0 - t_create)) ~measured_ns:(max 1 window)
    :: acc.repeats;
  acc.capacities <- (float_of_int w.capacity /. mb) :: acc.capacities;
  acc.window_ns <- acc.window_ns + window;
  acc.errors <- acc.errors @ !errors;
  acc.cost_units <- acc.cost_units + cost_elapsed (cost_diff w.cost1 w.cost0);
  acc.alloc_bytes <- acc.alloc_bytes + c.alloc_bytes;
  if acc.tracer <> None then begin
    let fr = Runtime.recorder rt in
    let lo = w.t0 + w.fr_offset and hi = w.t1 + w.fr_offset in
    recorder_layers acc fr ~lo ~hi;
    let cycles =
      List.filter
        (fun cy -> cy.Gc_stats.seq >= w.cycles0 && cy.Gc_stats.seq < w.cycles1)
        (Gc_stats.cycles (Runtime.stats rt))
    in
    let live =
      match List.rev cycles with [] -> 0 | cy :: _ -> cy.Gc_stats.live_bytes_at_end
    in
    acc.layers <-
      (cycle_layers cycles
      @ cost_layers (cost_diff w.cost1 w.cost0)
      @ counter_layers ~before:w.ctr0 w.ctr1
      @ host_layers ~before:w.gc0 w.gc1
      @ [
          ("heap.capacity_mb", float_of_int w.capacity /. mb);
          ("heap.live_mb", float_of_int live /. mb);
        ])
      :: acc.layers;
    if last then
      Option.iter
        (fun tr -> acc.trace <- Some (trace_doc ~workload fr ~offset:w.fr_offset tr.kept))
        acc.tracer
  end

let pass ~traced ~workload ~seed ~seconds ?(corrupt = false) spec =
  let acc = new_acc ~traced in
  let master = Rng.make seed in
  let rounds = max 1 (Float.to_int (Float.round (seconds /. round_seconds))) in
  for r = 1 to rounds do
    (* the trace shows the last round only *)
    (match acc.tracer with
    | Some tr when r = rounds -> Samples.clear tr.kept
    | _ -> ());
    round acc ~workload
      ~seed:(Rng.int (Rng.split master) (1 lsl 30))
      ~seconds:(seconds /. float_of_int rounds) ~corrupt ~last:(r = rounds) spec
  done;
  let window = s_of_ns acc.window_ns in
  let e2e =
    e2e_of_repeats acc.repeats ~ops:acc.lat
      ~heap_mb:(Samples.median_float acc.capacities)
      ~cost_units_per_kb:
        (float_of_int acc.cost_units /. (float_of_int (max 1 acc.alloc_bytes) /. 1024.))
  in
  let layers, notes, trace =
    match acc.tracer with
    | None -> ([], [], None)
    | Some tr ->
        let cycles = s_of_ns acc.cycle_ns in
        let idle = window -. cycles in
        let ph i = s_of_ns acc.phase_ns.(i) in
        let phases = ph 0 +. ph 1 +. ph 2 +. ph 3 in
        let requests = s_of_ns acc.req_ns in
        let calls = s_of_ns (Array.fold_left ( + ) 0 tr.call_ns) in
        let hs = Samples.sorted acc.hs_lat in
        let alloc_lat = Samples.sorted tr.alloc_lat in
        let store_lat = Samples.sorted tr.store_lat in
        let pct sorted p = float_of_int (Samples.percentile sorted p) in
        let timing =
          [
            ("collector.host_s", window);
            ("mutator.host_s", requests);
            ("collector.busy_frac", cycles /. window);
            ("collector.clear_s", ph 0);
            ("collector.card_scan_s", ph 1);
            ("collector.trace_s", ph 2);
            ("collector.sweep_s", ph 3);
            ("collector.handshakes", float_of_int (Array.length hs));
            ("collector.handshake_s", s_of_ns acc.hs_ns);
            ("collector.handshake_p99_us", float_of_int (Samples.percentile hs 0.99) /. 1e3);
            ("collector.idle_s", idle);
            ("runtime.alloc_calls", float_of_int tr.calls.(k_alloc));
            ("runtime.store_calls", float_of_int tr.calls.(k_store));
            ("runtime.load_calls", float_of_int tr.calls.(k_load));
            ("runtime.alloc_s", s_of_ns tr.call_ns.(k_alloc));
            ("runtime.store_s", s_of_ns tr.call_ns.(k_store));
            ("runtime.load_s", s_of_ns tr.call_ns.(k_load));
            ("runtime.alloc_p50_ns", pct alloc_lat 0.5);
            ("runtime.alloc_p99_ns", pct alloc_lat 0.99);
            ("runtime.store_p50_ns", pct store_lat 0.5);
            ("runtime.store_p99_ns", pct store_lat 0.99);
            ("runtime.alloc_slow", float_of_int tr.alloc_slow);
            ("runtime.alloc_max_ms", float_of_int tr.alloc_max /. 1e6);
            ("client.self_s", s_of_ns tr.self_ns);
          ]
        in
        let notes =
          [
            Printf.sprintf
              "reconcile collector: wall %.4f s = cycles %.4f + idle %.4f; inside \
               cycles, phase spans cover %.4f, uncovered %.4f"
              window cycles idle phases (cycles -. phases);
            Printf.sprintf
              "reconcile client: wall %.4f s = requests %.4f + uncovered (between \
               requests) %.4f; requests = runtime calls %.4f + client.self_s %.4f"
              window requests (window -. requests) calls (s_of_ns tr.self_ns);
          ]
        in
        ( timing @ merge_layers acc.layers,
          notes,
          acc.trace )
  in
  let count n what = if n = 0 then [] else [ Printf.sprintf "%d requests %s" n what ] in
  let errors =
    acc.errors
    @ count acc.mismatches "read a tag that disagrees with the shadow table"
    @ count acc.ooms "aborted by Runtime.Out_of_memory"
    @
    match trace with
    | Some doc -> check "Trace_export.validate" (Trace_export.validate doc)
    | None -> []
  in
  {
    attempted = acc.requests;
    (* a failed quiescent check fails the whole pass *)
    failed = (if acc.errors = [] then acc.failed else acc.requests);
    errors;
    e2e;
    layers;
    notes;
    trace;
  }
