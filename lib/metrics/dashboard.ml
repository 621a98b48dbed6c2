(* Cross-run trajectory dashboard: committed BENCH_NNNN.json records
   (plus the current run) as one panel per scenario, one normalised
   polyline per gated metric, in Report's page scaffold: inline CSS,
   inline SVG, nothing external. *)

module Svg = Otfgc_support.Svg

let style =
  "body{font-family:system-ui,sans-serif;margin:24px auto;max-width:980px;\
   color:#222}h1{font-size:20px}h2{font-size:15px;margin:18px 0 4px}\
   .meta{color:#666;font-size:12px}.chart{margin-bottom:10px}\
   svg{background:#fafafa;border:1px solid #ddd}\
   .axis line{stroke:#ccc;stroke-width:1}\
   .axis text{fill:#666;font-size:9px}\
   .ref line{stroke:#999;stroke-dasharray:3 3}\
   .traj{fill:none;stroke-width:1.5}\
   .traj.m0{stroke:#1f77b4}.traj.m1{stroke:#ff7f0e}.traj.m2{stroke:#2ca02c}\
   .traj.m3{stroke:#d62728}.traj.m4{stroke:#9467bd}.traj.m5{stroke:#8c564b}\
   .traj.m6{stroke:#e377c2}\
   .legend text{font-size:9px}"

let w = 760
let h = 220
let margin_l = 40.
let margin_r = 170. (* legend gutter *)
let margin_t = 12.
let margin_b = 28.

(* value of [metric] in [scenario] of run [t], when both exist *)
let lookup t ~scenario ~metric =
  match
    List.find_opt (fun s -> s.Trajectory.name = scenario) t.Trajectory.scenarios
  with
  | None -> None
  | Some s -> List.assoc_opt metric s.Trajectory.metrics

(* normalised series for one metric across the runs: (run_index, 100 *
   v / v_first); None when no run records it *)
let series runs ~scenario ~metric =
  let pts =
    List.concat
      (List.mapi
         (fun i (_, t) ->
           match lookup t ~scenario ~metric with
           | Some v -> [ (i, v) ]
           | None -> [])
         runs)
  in
  match pts with
  | [] -> None
  | (_, v0) :: _ ->
      let base = Float.max (Float.abs v0) 1. in
      Some (List.map (fun (i, v) -> (i, 100. *. v /. base)) pts)

let scenario_panel runs scenario =
  let metric_series =
    List.concat
      (List.mapi
         (fun mi metric ->
           match series runs ~scenario ~metric with
           | Some pts -> [ (mi, metric, pts) ]
           | None -> [])
         Trajectory.gated_metrics)
  in
  let n_runs = List.length runs in
  let all_ys =
    List.concat_map (fun (_, _, pts) -> List.map snd pts) metric_series
  in
  let lo = List.fold_left Float.min 95. all_ys in
  let hi = List.fold_left Float.max 105. all_ys in
  let x i =
    if n_runs <= 1 then margin_l
    else
      margin_l
      +. float_of_int i
         *. (float_of_int w -. margin_l -. margin_r)
         /. float_of_int (n_runs - 1)
  in
  let y v =
    let span = Float.max (hi -. lo) 1e-9 in
    float_of_int h -. margin_b
    -. ((v -. lo) /. span *. (float_of_int h -. margin_t -. margin_b))
  in
  let axis =
    Svg.group ~cls:"axis"
      (Svg.line ~x1:margin_l ~y1:(y lo)
         ~x2:(float_of_int w -. margin_r)
         ~y2:(y lo) ()
      :: Svg.line ~x1:margin_l ~y1:margin_t ~x2:margin_l ~y2:(y lo) ()
      :: List.concat
           (List.mapi
              (fun i (label, _) ->
                [
                  Svg.line ~x1:(x i) ~y1:(y lo) ~x2:(x i) ~y2:(y lo +. 4.) ();
                  Svg.text ~x:(x i)
                    ~y:(float_of_int h -. 8.)
                    ~attrs:[ ("text-anchor", "middle") ]
                    label;
                ])
              runs)
      @ [
          Svg.text ~x:4. ~y:(y hi +. 8.) (Printf.sprintf "%.0f" hi);
          Svg.text ~x:4. ~y:(y lo) (Printf.sprintf "%.0f" lo);
        ])
  in
  (* the 100 = baseline reference line *)
  let reference =
    if lo <= 100. && 100. <= hi then
      [
        Svg.group ~cls:"ref"
          [
            Svg.line ~x1:margin_l ~y1:(y 100.)
              ~x2:(float_of_int w -. margin_r)
              ~y2:(y 100.) ();
          ];
      ]
    else []
  in
  let lines =
    List.map
      (fun (mi, _, pts) ->
        let coords = List.map (fun (i, v) -> (x i, y v)) pts in
        (* a single surviving point still needs two pairs to be a line *)
        let coords =
          match coords with [ (px, py) ] -> [ (px, py); (px +. 1., py) ] | c -> c
        in
        Svg.polyline ~points:coords ~cls:(Printf.sprintf "traj m%d" mi) ())
      metric_series
  in
  let legend =
    Svg.group ~cls:"legend"
      (List.concat
         (List.mapi
            (fun row (mi, metric, pts) ->
              let ly = margin_t +. 10. +. (float_of_int row *. 12.) in
              let lx = float_of_int w -. margin_r +. 10. in
              let last = List.fold_left (fun _ (_, v) -> v) 100. pts in
              [
                Svg.line ~x1:lx ~y1:(ly -. 3.) ~x2:(lx +. 12.) ~y2:(ly -. 3.)
                  ~cls:(Printf.sprintf "traj m%d" mi) ();
                Svg.text ~x:(lx +. 16.) ~y:ly
                  (Printf.sprintf "%s (%.0f)" metric last);
              ])
            metric_series))
  in
  Svg.svg ~w ~h
    ~attrs:[ ("data-samples", string_of_int n_runs) ]
    ((axis :: reference) @ lines @ [ legend ])

let render ~runs =
  match runs with
  | [] -> Error "dashboard needs at least one trajectory record"
  | (_, first) :: _ ->
      (* panel per scenario, in order of first appearance across runs *)
      let scenarios =
        List.fold_left
          (fun acc (_, t) ->
            List.fold_left
              (fun acc s ->
                if List.mem s.Trajectory.name acc then acc
                else acc @ [ s.Trajectory.name ])
              acc t.Trajectory.scenarios)
          [] runs
      in
      Ok
        (Report.page ~title:"gcsim bench trajectory" ~style
           ~heading:"Benchmark trajectory across runs"
           ~meta:
             (Printf.sprintf
                "%d runs, %d scenarios; each line is one gated metric \
                 normalised to its earliest recorded value (100 = no \
                 change, lower is better); legend shows the latest value.  \
                 Grid: scale %g, seed %d%s."
                (List.length runs) (List.length scenarios)
                first.Trajectory.scale first.Trajectory.seed
                (if first.Trajectory.quick then ", quick" else ""))
           (List.map (fun sc -> (sc, scenario_panel runs sc)) scenarios))

let validate doc =
  Report.validate_structure ~required_classes:[ "axis"; "traj" ] ~min_samples:1
    doc
