module Json = Otfgc_support.Json
module Fr = Otfgc.Flight_recorder
open Otfgc

let pid = 1

let span ~name ~ts ~dur ~tid args =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String "X");
       ("ts", Json.Int ts);
       ("dur", Json.Int dur);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ if args = [] then [] else [ ("args", Json.Obj args) ])

let instant ~name ~ts ~tid args =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String "i");
       ("ts", Json.Int ts);
       ("s", Json.String "t");
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ if args = [] then [] else [ ("args", Json.Obj args) ])

let metadata ~name ~tid value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String value) ]);
    ]

let status_name i =
  if i >= 0 && i <= 2 then Status.to_string (Status.of_index i)
  else "status-" ^ string_of_int i

let kind_label i =
  if i >= 0 && i <= 2 then Gc_stats.kind_name (Gc_stats.kind_of_index i)
  else "kind-" ^ string_of_int i

let phase_name = function
  | 0 -> "clear"
  | 1 -> "cards"
  | 2 -> "trace"
  | _ -> "sweep"

(* The counts each collector-track phase span carries (a helper
   worker's share records none). *)
let phase_arg = function 1 -> "seeds" | 2 -> "traced" | 3 -> "freed" | _ -> ""

let name_of (e : Fr.event) =
  match e.kind with
  | Fr.Phase -> phase_name e.a
  | Fr.Cycle -> "cycle " ^ kind_label e.a
  | Fr.Handshake -> "handshake " ^ status_name e.a
  | Fr.Ack -> "ack " ^ status_name e.a
  | Fr.Stall -> "alloc stall"
  | Fr.Steal -> if e.a = 1 then "steal hit" else "steal miss"
  | k -> Fr.kind_name k

let args_of (e : Fr.event) =
  match e.kind with
  | Fr.Phase when e.tid = Fr.collector_tid && phase_arg e.a <> "" ->
      [ (phase_arg e.a, Json.Int e.b) ]
  | Fr.Cycle -> [ ("full", Json.Bool (e.b = 1)) ]
  | Fr.Poll -> [ ("polls", Json.Int e.a) ]
  | Fr.Lock_wait -> [ ("class", Json.Int e.a) ]
  | Fr.Promoted -> [ ("count", Json.Int e.a) ]
  | Fr.Heap_grown -> [ ("capacity", Json.Int e.a) ]
  | _ -> []

let is_instant = function
  | Fr.Ack | Fr.Poll | Fr.Colors_toggled | Fr.Promoted | Fr.Heap_grown -> true
  | _ -> false

(* One track per ring (collector, handshakes, each GC worker, each
   mutator).  On the ns clock (domains) timestamps are rebased to the
   first event and floored to microseconds; span ends are converted as
   endpoints — [us t0 + us dur] would round each side down independently
   and could push a child slice one microsecond past its parent, which
   [validate] rejects; flooring both endpoints keeps ns-containment
   implying us-containment.  Simulator cost units are written as they
   are, one unit per microsecond. *)
let of_flight ?(workload = "") fr =
  let events = Fr.events fr in
  let us =
    if Fr.units fr then Fun.id
    else
      let base = match events with [] -> 0 | e :: _ -> e.Fr.t0_ns in
      fun ns -> Otfgc_support.Monotonic_clock.ns_to_us (ns - base)
  in
  let substrate = if Fr.units fr then "simulator" else "domains" in
  let label =
    if workload = "" then substrate else workload ^ " (" ^ substrate ^ ")"
  in
  let meta =
    metadata ~name:"process_name" ~tid:Fr.collector_tid ("gcsim " ^ label)
    :: List.map
         (fun (track, tid) -> metadata ~name:"thread_name" ~tid track)
         (Fr.tracks fr)
  in
  let record (e : Fr.event) =
    let ts = us e.t0_ns and name = name_of e and tid = e.tid in
    if is_instant e.kind then instant ~name ~ts ~tid (args_of e)
    else span ~name ~ts ~dur:(us (e.t0_ns + e.dur_ns) - ts) ~tid (args_of e)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.map record events));
      ("displayTimeUnit", Json.String "ms");
    ]

let pp_timeline ppf fr =
  List.iter
    (fun (e : Fr.event) ->
      if e.kind <> Fr.Poll then begin
        Format.fprintf ppf "%12d  %-10s %s" e.t0_ns e.track (name_of e);
        if not (is_instant e.kind) then Format.fprintf ppf " (%d)" e.dur_ns;
        List.iter
          (fun (k, v) -> Format.fprintf ppf " %s=%s" k (Json.to_string v))
          (args_of e);
        Format.pp_print_newline ppf ()
      end)
    (Fr.events fr)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let field name j = Json.member name j

let validate doc =
  let ( let* ) = Result.bind in
  let* events =
    match Option.bind (field "traceEvents" doc) Json.as_list with
    | Some l -> Ok l
    | None -> Error "no traceEvents array"
  in
  let err i msg = Error (Printf.sprintf "event %d: %s" i msg) in
  let check_event i e =
    let str k = Option.bind (field k e) Json.as_string in
    let int k = Option.bind (field k e) Json.as_int in
    let* () = if str "name" = None then err i "missing name" else Ok () in
    let* () = if int "pid" = None then err i "missing pid" else Ok () in
    let* () = if int "tid" = None then err i "missing tid" else Ok () in
    match str "ph" with
    | Some "X" -> (
        match (int "ts", int "dur") with
        | Some _, Some d when d >= 0 -> Ok ()
        | Some _, Some _ -> err i "negative dur"
        | _ -> err i "duration event lacks integer ts/dur")
    | Some "i" -> if int "ts" = None then err i "instant lacks ts" else Ok ()
    | Some "M" -> Ok ()
    | Some ph -> err i ("unsupported phase " ^ ph)
    | None -> err i "missing ph"
  in
  let rec check_all i = function
    | [] -> Ok ()
    | e :: rest ->
        let* () = check_event i e in
        check_all (i + 1) rest
  in
  let* () = check_all 0 events in
  (* Slices on one track must nest: sort by (ts, wider-first) and run a
     stack of open intervals; a slice poking out past its enclosing slice
     means the exporter produced partial overlap. *)
  let slices = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match Option.bind (field "ph" e) Json.as_string with
      | Some "X" ->
          let get k =
            Option.value ~default:0 (Option.bind (field k e) Json.as_int)
          in
          let tid = get "tid" in
          let prev = Option.value ~default:[] (Hashtbl.find_opt slices tid) in
          Hashtbl.replace slices tid ((get "ts", get "dur") :: prev)
      | _ -> ())
    events;
  let nested = ref (Ok ()) in
  Hashtbl.iter
    (fun tid spans ->
      if Result.is_ok !nested then begin
        let spans =
          List.sort
            (fun (t0, d0) (t1, d1) ->
              if t0 <> t1 then compare t0 t1 else compare d1 d0)
            spans
        in
        let stack = ref [] in
        List.iter
          (fun (ts, dur) ->
            if Result.is_ok !nested then begin
              while
                match !stack with
                | fin :: rest when ts >= fin ->
                    stack := rest;
                    true
                | _ -> false
              do
                ()
              done;
              (match !stack with
              | fin :: _ when ts + dur > fin ->
                  nested :=
                    Error
                      (Printf.sprintf
                         "track %d: slice at ts=%d dur=%d overlaps its \
                          enclosing slice"
                         tid ts dur)
              | _ -> ());
              stack := (ts + dur) :: !stack
            end)
          spans
      end)
    slices;
  let* () = !nested in
  let has_collector_thread =
    List.exists
      (fun e ->
        Option.bind (field "ph" e) Json.as_string = Some "M"
        && Option.bind (field "name" e) Json.as_string = Some "thread_name"
        && Option.bind (field "args" e) (field "name")
           |> Fun.flip Option.bind Json.as_string
           = Some "collector")
      events
  in
  if has_collector_thread then Ok ()
  else Error "no collector thread_name metadata"
