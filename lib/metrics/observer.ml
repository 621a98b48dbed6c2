(* The observer domain: wakes at a wall-clock cadence, takes lock-free
   snapshots and pushes them to the JSONL / OpenMetrics / terminal
   sinks.  All sink I/O happens on the observer domain while it runs;
   [stop] joins it first, so the final-snapshot write from the caller's
   domain never races. *)

module Clock = Otfgc_support.Monotonic_clock
module Json = Otfgc_support.Json
module Metrics_snapshot = Otfgc.Metrics_snapshot
module Sampler = Otfgc.Sampler

type config = {
  every_ms : float;
  om_path : string option;
  jsonl_path : string option;
  live : bool;
  labels : (string * string) list;
}

type t = {
  config : config;
  stop_flag : bool Atomic.t;
  mutable domain : unit Domain.t option;
  mutable st : Otfgc.State.t option;
  mutable start_ns : int;
  mutable jsonl : out_channel option;
  mutable live_primed : bool; (* the two live lines are on screen *)
  mutable stopped : bool;
}

let create config =
  if not (config.every_ms > 0.) then
    invalid_arg "Observer.create: every_ms must be positive";
  {
    config;
    stop_flag = Atomic.make false;
    domain = None;
    st = None;
    start_ns = 0;
    jsonl = None;
    live_primed = false;
    stopped = false;
  }

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let write_whole path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let ribbon ~width ~num ~den =
  let filled =
    if den <= 0 then 0
    else
      let f = num * width / den in
      if f > width then width else if f < 0 then 0 else f
  in
  String.concat ""
    [ "["; String.make filled '#'; String.make (width - filled) '.'; "]" ]

let render_live t (s : Metrics_snapshot.t) prev =
  let pct =
    if s.heap_capacity <= 0 then 0.
    else 100. *. float_of_int s.heap_allocated_bytes
         /. float_of_int s.heap_capacity
  in
  let rate_mib_s =
    match prev with
    | Some (p : Metrics_snapshot.t) when s.at_ms > p.at_ms ->
        float_of_int (s.total_alloc_bytes - p.total_alloc_bytes)
        /. ((s.at_ms -. p.at_ms) /. 1000.)
        /. (1024. *. 1024.)
    | _ -> 0.
  in
  let cycles = s.cycles_partial + s.cycles_full + s.cycles_non_gen in
  (* repaint in place: move up over the previous two lines *)
  if t.live_primed then print_string "\x1b[2A";
  Printf.printf "\r\x1b[K[live] heap %s %5.1f%%  phase %-10s alloc %7.2f MiB/s\n"
    (ribbon ~width:20 ~num:s.heap_allocated_bytes ~den:s.heap_capacity)
    pct s.phase rate_mib_s;
  Printf.printf
    "\r\x1b[K[live] young %d KiB  dirty %d  gray %d  cycles %d  p99 hs %d us  \
     snap #%d\n"
    (s.young_bytes / 1024) s.dirty_cards s.gray_depth cycles s.slo_handshake.p99
    s.seq;
  t.live_primed <- true;
  flush stdout

(* Called only from the observer domain while it runs, and from [stop]
   after joining it: the observer is the store's one writer. *)
let emit t st snap =
  let store = st.Otfgc.State.sampler in
  let prev = Sampler.last store in
  Sampler.push store snap;
  (match t.jsonl with
  | Some oc ->
      output_string oc (Json.to_string (Metrics_snapshot.to_json snap));
      output_char oc '\n';
      flush oc
  | None -> ());
  (match t.config.om_path with
  | Some path ->
      write_whole path (Openmetrics.render ~labels:t.config.labels snap)
  | None -> ());
  if t.config.live then render_live t snap prev

let sample t st =
  let seq = Sampler.length st.Otfgc.State.sampler in
  let at_ms = float_of_int (Clock.now_ns () - t.start_ns) /. 1e6 in
  emit t st (Otfgc.Observatory.take ~seq ~at_ms st)

(* ------------------------------------------------------------------ *)
(* Observer loop                                                       *)
(* ------------------------------------------------------------------ *)

(* sleep in small slices so [stop] is honoured promptly even at a slow
   cadence *)
let rec sleep_until t deadline =
  if not (Atomic.get t.stop_flag) then begin
    let now = Clock.now_ns () in
    if now < deadline then begin
      let remain_s = float_of_int (deadline - now) /. 1e9 in
      Unix.sleepf (Float.min remain_s 0.01);
      sleep_until t deadline
    end
  end

let loop t st =
  let period_ns =
    int_of_float (t.config.every_ms *. 1e6) |> max 1
  in
  let rec tick deadline =
    sleep_until t deadline;
    if not (Atomic.get t.stop_flag) then begin
      sample t st;
      tick (deadline + period_ns)
    end
  in
  tick (t.start_ns + period_ns)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let launch t rt =
  if t.domain <> None || t.stopped then
    invalid_arg "Observer.launch: already launched";
  let st = Otfgc.Runtime.state rt in
  t.st <- Some st;
  t.start_ns <- Clock.now_ns ();
  (match t.config.jsonl_path with
  | Some path -> t.jsonl <- Some (open_out path)
  | None -> ());
  t.domain <- Some (Domain.spawn (fun () -> loop t st))

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop_flag true;
    (match t.domain with Some d -> Domain.join d | None -> ());
    (* the final snapshot: taken at quiescence, so its counters are the
       run's exact totals.  Zero-cadence-tick runs still get this one
       record. *)
    (match t.st with Some st -> sample t st | None -> ());
    (match t.jsonl with
    | Some oc ->
        close_out oc;
        t.jsonl <- None
    | None -> ())
  end
