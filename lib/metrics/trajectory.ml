module Json = Otfgc_support.Json
module Textable = Otfgc_support.Textable

type scenario = {
  name : string;
  wall_ms : float;
  metrics : (string * float) list;
}

type t = {
  schema_version : int;
  scale : float;
  seed : int;
  quick : bool;
  scenarios : scenario list;
}

let schema_version = 2

(* v1 records (gated metrics + headline counts only) remain readable so
   the dashboard can plot the whole committed history; the gate itself
   stays strict — see [diff]. *)
let readable_versions = [ 1; 2 ]

let make ~scale ~seed ~quick scenarios =
  { schema_version; scale; seed; quick; scenarios }

(* All lower-is-better, all bit-deterministic given (code, scale, seed):
   total elapsed under both CPU models, the split of the work ledger,
   how big the heap ended up, and how much garbage floated per cycle.
   Cycle counts are recorded but not gated (a collector tuning change
   may trade more, cheaper cycles — elapsed catches real losses). *)
let gated_metrics =
  [
    "elapsed_multi";
    "elapsed_uni";
    "mutator_work";
    "collector_work";
    "stall_work";
    "final_capacity";
    "avg_floating_bytes";
  ]

let scenario_of_result ~name ~wall_ms (r : Run_result.t) =
  {
    name;
    wall_ms;
    metrics =
      [
        ("elapsed_multi", float_of_int r.Run_result.elapsed_multi);
        ("elapsed_uni", float_of_int r.Run_result.elapsed_uni);
        ("mutator_work", float_of_int r.Run_result.mutator_work);
        ("collector_work", float_of_int r.Run_result.collector_work);
        ("stall_work", float_of_int r.Run_result.stall_work);
        ("final_capacity", float_of_int r.Run_result.final_capacity);
        ("avg_floating_bytes", r.Run_result.avg_floating_bytes);
        ("n_cycles",
         float_of_int
           (r.Run_result.n_partial + r.Run_result.n_full
          + r.Run_result.n_non_gen));
        ("pct_time_gc", r.Run_result.pct_time_gc);
      ];
  }

(* Schema v2: the gated set plus ungated attribution metrics, read from
   the run's summary ({!Otfgc.Metrics_snapshot}) — the collector's
   per-phase work split ([phase_*]) and the headline counters
   ([ctr_*]).  All deterministic under the simulator; none gated (a
   tuning change may legitimately move work between phases) — they
   exist so a gate failure can be attributed to the phase or counter
   that moved. *)
let ctr_names =
  [
    "barrier_updates"; "yellow_fires"; "promotions"; "dirty_card_finds";
    "handshake_acks"; "stalls"; "card_marks"; "remset_records"; "lock_waits";
  ]

let scenario_of_runtime ~name ~wall_ms (r : Run_result.t) rt =
  let s = scenario_of_result ~name ~wall_ms r in
  let snap = Otfgc.Observatory.take (Otfgc.Runtime.state rt) in
  let counters = Otfgc.Metrics_snapshot.counters snap in
  let metric prefix (k, v) = (prefix ^ k, float_of_int v) in
  let phase_metrics =
    List.map (metric "phase_") snap.Otfgc.Metrics_snapshot.phase_work
  in
  let ctr_metrics =
    List.map (fun k -> metric "ctr_" (k, List.assoc k counters)) ctr_names
  in
  { s with metrics = s.metrics @ phase_metrics @ ctr_metrics }

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let scenario_to_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("wall_ms", Json.Float s.wall_ms);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.metrics));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "otfgc-bench-trajectory");
      ("schema_version", Json.Int t.schema_version);
      ("scale", Json.Float t.scale);
      ("seed", Json.Int t.seed);
      ("quick", Json.Bool t.quick);
      ("scenarios", Json.List (List.map scenario_to_json t.scenarios));
    ]

let ( let* ) = Result.bind

let need what = function Some v -> Ok v | None -> Error ("missing or mistyped " ^ what)

let scenario_of_json j =
  let* name = need "scenario name" (Option.bind (Json.member "name" j) Json.as_string) in
  let* wall_ms =
    need (name ^ ".wall_ms") (Option.bind (Json.member "wall_ms" j) Json.as_float)
  in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Json.as_float v with
            | Some f -> Ok ((k, f) :: acc)
            | None -> Error (Printf.sprintf "metric %s.%s not a number" name k))
          (Ok []) kvs
        |> Result.map List.rev
    | _ -> Error ("missing metrics object in scenario " ^ name)
  in
  Ok { name; wall_ms; metrics }

let of_json j =
  let* tag = need "schema tag" (Option.bind (Json.member "schema" j) Json.as_string) in
  let* () =
    if tag = "otfgc-bench-trajectory" then Ok ()
    else Error (Printf.sprintf "unexpected schema tag %S" tag)
  in
  let* v =
    need "schema_version" (Option.bind (Json.member "schema_version" j) Json.as_int)
  in
  let* () =
    if List.mem v readable_versions then Ok ()
    else
      Error
        (Printf.sprintf "schema_version %d (this build reads %s)" v
           (String.concat ", " (List.map string_of_int readable_versions)))
  in
  let* scale = need "scale" (Option.bind (Json.member "scale" j) Json.as_float) in
  let* seed = need "seed" (Option.bind (Json.member "seed" j) Json.as_int) in
  let* quick =
    match Json.member "quick" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "missing or mistyped quick"
  in
  let* scenarios =
    match Option.bind (Json.member "scenarios" j) Json.as_list with
    | None -> Error "missing scenarios array"
    | Some js ->
        List.fold_left
          (fun acc sj ->
            let* acc = acc in
            let* s = scenario_of_json sj in
            Ok (s :: acc))
          (Ok []) js
        |> Result.map List.rev
  in
  let* () = if scenarios = [] then Error "empty scenarios array" else Ok () in
  Ok { schema_version = v; scale; seed; quick; scenarios }

let validate j = Result.map (fun (_ : t) -> ()) (of_json j)

(* ------------------------------------------------------------------ *)
(* Regression diff                                                     *)
(* ------------------------------------------------------------------ *)

type regression = {
  r_scenario : string;
  r_metric : string;
  r_baseline : float;
  r_current : float;
  r_delta_pct : float;
}

let diff ?(threshold_pct = 5.) ~baseline ~current () =
  let* () =
    if baseline.schema_version <> current.schema_version then
      Error "baseline has a different schema version"
    else if baseline.scale <> current.scale then
      Error
        (Printf.sprintf "baseline ran at scale %g, current at %g" baseline.scale
           current.scale)
    else if baseline.seed <> current.seed then
      Error "baseline ran with a different seed"
    else if baseline.quick <> current.quick then
      Error "baseline quick flag differs"
    else Ok ()
  in
  let regs = ref [] in
  List.iter
    (fun cur ->
      match List.find_opt (fun b -> b.name = cur.name) baseline.scenarios with
      | None -> () (* new scenario: nothing to gate against *)
      | Some base ->
          List.iter
            (fun metric ->
              match
                ( List.assoc_opt metric base.metrics,
                  List.assoc_opt metric cur.metrics )
              with
              | Some b, Some c ->
                  let delta_pct = (c -. b) /. Float.max (Float.abs b) 1. *. 100. in
                  if delta_pct > threshold_pct then
                    regs :=
                      {
                        r_scenario = cur.name;
                        r_metric = metric;
                        r_baseline = b;
                        r_current = c;
                        r_delta_pct = delta_pct;
                      }
                      :: !regs
              | _ -> ())
            gated_metrics)
    current.scenarios;
  Ok (List.rev !regs)

let render_diff ~baseline ~current regressions =
  match regressions with
  | [] ->
      Printf.sprintf
        "trajectory gate: OK — %d scenarios, no gated metric above baseline\n"
        (List.length current.scenarios)
  | regs ->
      let tbl =
        Textable.create
          ~title:
            (Printf.sprintf
               "trajectory gate: %d REGRESSION%s vs baseline (%d scenarios)"
               (List.length regs)
               (if List.length regs = 1 then "" else "S")
               (List.length baseline.scenarios))
          [ "scenario"; "metric"; "baseline"; "current"; "delta %" ]
      in
      List.iter
        (fun r ->
          Textable.add_row tbl
            [
              r.r_scenario;
              r.r_metric;
              Textable.fmt_int r.r_baseline;
              Textable.fmt_int r.r_current;
              Textable.fmt_pct r.r_delta_pct;
            ])
        regs;
      let worst =
        List.fold_left
          (fun acc r ->
            match acc with
            | Some w when w.r_delta_pct >= r.r_delta_pct -> acc
            | _ -> Some r)
          None regs
      in
      Textable.render tbl
      ^
      (match worst with
      | Some w ->
          Printf.sprintf
            "worst offender: scenario %s, metric %s (%.0f -> %.0f, +%.1f%% \
             over baseline)\n"
            w.r_scenario w.r_metric w.r_baseline w.r_current w.r_delta_pct
      | None -> "")

(* ------------------------------------------------------------------ *)
(* Regression attribution                                              *)
(* ------------------------------------------------------------------ *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Rank the ungated attribution metrics ([phase_*], [ctr_*]) by how much
   they moved between baseline and current — when the gate fails on an
   aggregate like [collector_work], this table names the phase or event
   counter behind the movement. *)
let attribution ~baseline ~current =
  let rows = ref [] in
  List.iter
    (fun cur ->
      match List.find_opt (fun b -> b.name = cur.name) baseline.scenarios with
      | None -> ()
      | Some base ->
          List.iter
            (fun (metric, c) ->
              if has_prefix "phase_" metric || has_prefix "ctr_" metric then
                match List.assoc_opt metric base.metrics with
                | Some b when b <> c ->
                    let delta_pct =
                      (c -. b) /. Float.max (Float.abs b) 1. *. 100.
                    in
                    rows :=
                      {
                        r_scenario = cur.name;
                        r_metric = metric;
                        r_baseline = b;
                        r_current = c;
                        r_delta_pct = delta_pct;
                      }
                      :: !rows
                | _ -> ())
            cur.metrics)
    current.scenarios;
  List.sort
    (fun a b -> compare (Float.abs b.r_delta_pct) (Float.abs a.r_delta_pct))
    !rows

let render_attribution ?(limit = 12) rows =
  match rows with
  | [] ->
      "attribution: no phase/counter movement recorded (baseline predates \
       schema v2?)\n"
  | rows ->
      let shown = List.filteri (fun i _ -> i < limit) rows in
      let tbl =
        Textable.create
          ~title:
            (Printf.sprintf
               "regression attribution: top %d phase/counter movements"
               (List.length shown))
          [ "scenario"; "metric"; "baseline"; "current"; "delta %" ]
      in
      List.iter
        (fun r ->
          Textable.add_row tbl
            [
              r.r_scenario;
              r.r_metric;
              Textable.fmt_int r.r_baseline;
              Textable.fmt_int r.r_current;
              Textable.fmt_pct r.r_delta_pct;
            ])
        shown;
      Textable.render tbl
