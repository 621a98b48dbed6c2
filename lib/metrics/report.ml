module Svg = Otfgc_support.Svg
module Timeseries = Otfgc_support.Timeseries
module Runtime = Otfgc.Runtime
module Sampler = Otfgc.Sampler
module Fr = Otfgc.Flight_recorder

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let width = 960.
let margin_l = 72.
let margin_r = 16.
let margin_t = 12.
let margin_b = 30.
let plot_w = width -. margin_l -. margin_r

let style =
  (* No '<' or '>' anywhere in the CSS: the validator's tag scanner
     reads the whole document. *)
  "body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:1020px;\
   color:#1f2430;background:#fff}\
   h1{font-size:20px}h2{font-size:15px;margin:18px 0 4px}\
   p.meta{color:#5b6472;margin:2px 0 12px}\
   .chart{margin-bottom:8px}\
   svg{background:#fafbfc;border:1px solid #e3e6ea}\
   .axis{font:11px system-ui,sans-serif;fill:#5b6472}\
   .gridline{stroke:#e3e6ea;stroke-width:1}\
   .capacity{fill:none;stroke:#1f2430;stroke-width:1.2;stroke-dasharray:4 3}\
   .ribbon-blue{fill:#c7dcf2}\
   .ribbon-c0{fill:#e8b04b}\
   .ribbon-c1{fill:#4ba3a3}\
   .ribbon-gray{fill:#9aa3ad}\
   .ribbon-black{fill:#3a3f47}\
   .strip-cycle{fill:#b9a7e0}\
   .strip-handshake{fill:#e08a3c}\
   .strip-stall{fill:#d05252}\
   .promotion{fill:none;stroke:#7a4fc0;stroke-width:1.5}\
   .legend{font:11px system-ui,sans-serif;fill:#1f2430}"

(* ------------------------------------------------------------------ *)
(* Series access                                                       *)
(* ------------------------------------------------------------------ *)

type series = { ts : Timeseries.t; n : int; t_max : int }

let cell s col row = Timeseries.get s.ts ~col ~row

let x_of s at =
  if s.t_max = 0 then margin_l
  else margin_l +. (plot_w *. float_of_int at /. float_of_int s.t_max)

let x_of_row s row = x_of s (cell s Sampler.i_at row)

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)
(* ------------------------------------------------------------------ *)

let fmt_count v =
  if v >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int v /. 1.e6)
  else if v >= 10_000 then Printf.sprintf "%dk" (v / 1000)
  else string_of_int v

let x_axis s ~h =
  let ticks = 6 in
  List.concat
    (List.init (ticks + 1) (fun i ->
         let at = s.t_max * i / ticks in
         let x = x_of s at in
         [
           Svg.line ~x1:x ~y1:margin_t ~x2:x ~y2:(h -. margin_b)
             ~cls:"gridline" ();
           Svg.text ~x ~y:(h -. margin_b +. 16.) ~cls:"axis"
             ~attrs:[ ("text-anchor", "middle") ]
             (fmt_count at);
         ]))

let y_axis ~h ~y_max ~label fmt =
  let ticks = 4 in
  let plot_h = h -. margin_t -. margin_b in
  List.concat
    (List.init (ticks + 1) (fun i ->
         let v = y_max * i / ticks in
         let y =
           h -. margin_b
           -.
           if y_max = 0 then 0.
           else plot_h *. float_of_int v /. float_of_int y_max
         in
         [
           Svg.text ~x:(margin_l -. 6.) ~y:(y +. 4.) ~cls:"axis"
             ~attrs:[ ("text-anchor", "end") ]
             (fmt v);
         ]))
  @ [
      Svg.text ~x:2. ~y:(margin_t +. 10.) ~cls:"axis" label;
      Svg.text
        ~x:(width -. margin_r)
        ~y:(h -. 4.) ~cls:"axis"
        ~attrs:[ ("text-anchor", "end") ]
        "elapsed work units";
    ]

(* ------------------------------------------------------------------ *)
(* Panel 1: occupancy ribbons                                          *)
(* ------------------------------------------------------------------ *)

(* Stacked bottom-up: old/dark layers first so the free space floats on
   top — the silhouette of the stack is the capacity staircase. *)
let ribbon_layers =
  [
    ("ribbon-black", Sampler.i_black_bytes);
    ("ribbon-gray", Sampler.i_gray_bytes);
    ("ribbon-c1", Sampler.i_c1_bytes);
    ("ribbon-c0", Sampler.i_c0_bytes);
    ("ribbon-blue", Sampler.i_blue_bytes);
  ]

let occupancy_svg s =
  let h = 320. in
  let plot_h = h -. margin_t -. margin_b in
  let cap_max =
    let m = ref 1 in
    for row = 0 to s.n - 1 do
      m := Stdlib.max !m (cell s Sampler.i_capacity row)
    done;
    !m
  in
  let y_of v =
    h -. margin_b -. (plot_h *. float_of_int v /. float_of_int cap_max)
  in
  (* cumulative stack bottom, updated layer by layer *)
  let base = Array.make s.n 0 in
  let ribbons =
    List.map
      (fun (cls, col) ->
        let upper =
          List.init s.n (fun row ->
              (x_of_row s row, y_of (base.(row) + cell s col row)))
        in
        let lower =
          List.init s.n (fun row -> (x_of_row s row, y_of base.(row)))
        in
        for row = 0 to s.n - 1 do
          base.(row) <- base.(row) + cell s col row
        done;
        Svg.polygon ~points:(upper @ List.rev lower) ~cls:("ribbon " ^ cls) ())
      ribbon_layers
  in
  let capacity =
    Svg.polyline
      ~points:
        (List.init s.n (fun row ->
             (x_of_row s row, y_of (cell s Sampler.i_capacity row))))
      ~cls:"capacity" ()
  in
  let legend =
    let entries =
      [
        ("ribbon-black", "old / black");
        ("ribbon-gray", "gray");
        ("ribbon-c1", "C1");
        ("ribbon-c0", "C0");
        ("ribbon-blue", "free (blue)");
      ]
    in
    List.concat
      (List.mapi
         (fun i (cls, label) ->
           let x = margin_l +. 8. +. (110. *. float_of_int i) in
           [
             Svg.rect ~x ~y:(margin_t +. 4.) ~w:10. ~h:10. ~cls ();
             Svg.text ~x:(x +. 14.) ~y:(margin_t +. 13.) ~cls:"legend" label;
           ])
         entries)
  in
  Svg.svg ~w:(int_of_float width) ~h:(int_of_float h)
    ~attrs:[ ("data-samples", string_of_int s.n) ]
    (x_axis s ~h
    @ y_axis ~h ~y_max:cap_max ~label:"bytes" fmt_count
    @ ribbons @ [ capacity ] @ legend)

(* ------------------------------------------------------------------ *)
(* Panel 2: collector-activity strips from the event recorder          *)
(* ------------------------------------------------------------------ *)

type span = { from_at : int; to_at : int }

(* The recorder's spans of one kind, in cost units like the census. *)
let spans_of kind events =
  List.filter_map
    (fun (e : Fr.event) ->
      if e.kind = kind then
        Some { from_at = e.t0_ns; to_at = e.t0_ns + e.dur_ns }
      else None)
    events

let strips_svg s events =
  let rows =
    [
      ("cycles", "strip strip-cycle", spans_of Fr.Cycle events);
      ("handshakes", "strip strip-handshake", spans_of Fr.Handshake events);
      ("stalls", "strip strip-stall", spans_of Fr.Stall events);
    ]
  in
  let row_h = 26. in
  let h = margin_t +. margin_b +. (row_h *. float_of_int (List.length rows)) in
  let strip_rects =
    List.concat
      (List.mapi
         (fun i (label, cls, spans) ->
           let y = margin_t +. (row_h *. float_of_int i) +. 4. in
           Svg.text ~x:(margin_l -. 6.) ~y:(y +. 12.) ~cls:"axis"
             ~attrs:[ ("text-anchor", "end") ]
             label
           :: List.map
                (fun { from_at; to_at } ->
                  let x0 = x_of s from_at and x1 = x_of s to_at in
                  Svg.rect ~x:x0 ~y
                    ~w:(Stdlib.max 1. (x1 -. x0))
                    ~h:(row_h -. 8.) ~cls ())
                spans)
         rows)
  in
  Svg.svg ~w:(int_of_float width) ~h:(int_of_float h)
    ~attrs:[ ("data-samples", string_of_int s.n) ]
    (x_axis s ~h @ strip_rects)

(* ------------------------------------------------------------------ *)
(* Panel 3: promotion rate                                             *)
(* ------------------------------------------------------------------ *)

(* The census records cumulative promotions; the rate is the discrete
   derivative per 1000 work units, plotted at each interval's right
   edge.  A run with no promotions draws a flat zero line. *)
let promotion_rate s =
  List.init (Stdlib.max 1 (s.n - 1)) (fun i ->
      let row0 = i and row1 = Stdlib.min (s.n - 1) (i + 1) in
      let dp =
        cell s Sampler.i_promotions row1 - cell s Sampler.i_promotions row0
      in
      let dt =
        Stdlib.max 1 (cell s Sampler.i_at row1 - cell s Sampler.i_at row0)
      in
      (cell s Sampler.i_at row1, 1000. *. float_of_int dp /. float_of_int dt))

let promotion_svg s =
  let h = 180. in
  let plot_h = h -. margin_t -. margin_b in
  let rates = promotion_rate s in
  let r_max = List.fold_left (fun m (_, r) -> Float.max m r) 1e-9 rates in
  let y_of r = h -. margin_b -. (plot_h *. r /. r_max) in
  let points =
    match rates with
    | [ (at, r) ] -> [ (x_of s 0, y_of r); (x_of s at, y_of r) ]
    | _ -> List.map (fun (at, r) -> (x_of s at, y_of r)) rates
  in
  let y_labels =
    List.init 3 (fun i ->
        let r = r_max *. float_of_int i /. 2. in
        Svg.text ~x:(margin_l -. 6.)
          ~y:(y_of r +. 4.)
          ~cls:"axis"
          ~attrs:[ ("text-anchor", "end") ]
          (Printf.sprintf "%.2f" r))
  in
  Svg.svg ~w:(int_of_float width) ~h:(int_of_float h)
    ~attrs:[ ("data-samples", string_of_int s.n) ]
    (x_axis s ~h @ y_labels
    @ [
        Svg.text ~x:2. ~y:(margin_t +. 10.) ~cls:"axis" "promotions / 1k units";
        Svg.polyline ~points ~cls:"promotion" ();
      ])

(* ------------------------------------------------------------------ *)
(* Document assembly                                                   *)
(* ------------------------------------------------------------------ *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let of_runtime ?(workload = "run") rt =
  let ts = Sampler.series (Runtime.sampler rt) in
  let n = Timeseries.length ts in
  if n < 2 then
    Error
      (Printf.sprintf
         "report needs at least 2 census samples, have %d (arm sampling with \
          --sample-every)"
         n)
  else begin
    let t_max =
      Stdlib.max 1 (Timeseries.get ts ~col:Sampler.i_at ~row:(n - 1))
    in
    let s = { ts; n; t_max } in
    let st = Runtime.state rt in
    let mode = Otfgc.Gc_config.mode_name st.Otfgc.State.cfg.Otfgc.Gc_config.mode in
    let events = Fr.events (Runtime.recorder rt) in
    let dropped = Fr.dropped (Runtime.recorder rt) in
    let buf = Buffer.create 65536 in
    let add = Buffer.add_string buf in
    add "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/><title>";
    add (html_escape ("gcsim report — " ^ workload));
    add "</title><style>";
    add style;
    add "</style></head><body>\n<h1>";
    add (html_escape (Printf.sprintf "Heap observatory — %s (%s)" workload mode));
    add "</h1>\n<p class=\"meta\">";
    add
      (html_escape
         (Printf.sprintf
            "%d census samples over %d work units; %d events logged%s" n
            s.t_max (List.length events)
            (if dropped > 0 then
               Printf.sprintf " (WARNING: %d oldest events overwritten)" dropped
             else "")));
    add "</p>\n<div class=\"chart\"><h2>Heap occupancy by color</h2>\n";
    Svg.to_buffer buf (occupancy_svg s);
    add "</div>\n<div class=\"chart\"><h2>Collector activity</h2>\n";
    Svg.to_buffer buf (strips_svg s events);
    add "</div>\n<div class=\"chart\"><h2>Promotion rate</h2>\n";
    Svg.to_buffer buf (promotion_svg s);
    add "</div>\n</body></html>\n";
    Ok (Buffer.contents buf)
  end

(* ------------------------------------------------------------------ *)
(* Structural validator                                                *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Tag scanner: yields (name, attrs_raw, self_closing) for every tag,
   checking attribute quoting on the way.  The emitters never produce
   '<' in text or attribute values (both escape), so a raw '<' reliably
   opens a tag. *)
let scan_tags doc f =
  let n = String.length doc in
  let i = ref 0 in
  let err = ref None in
  while !err = None && !i < n do
    if doc.[!i] <> '<' then incr i
    else begin
      let start = !i in
      (* find the matching '>' outside quotes *)
      let j = ref (start + 1) in
      let in_quote = ref false in
      while
        !j < n && (!in_quote || doc.[!j] <> '>')
      do
        if doc.[!j] = '"' then in_quote := not !in_quote;
        incr j
      done;
      if !j >= n then err := Some "unterminated tag"
      else begin
        let body = String.sub doc (start + 1) (!j - start - 1) in
        (if String.length body = 0 then err := Some "empty tag"
         else if body.[0] = '!' then () (* doctype/comment *)
         else begin
           let closing = body.[0] = '/' in
           let body' =
             if closing then String.sub body 1 (String.length body - 1)
             else body
           in
           let self_closing =
             (not closing)
             && String.length body' > 0
             && body'.[String.length body' - 1] = '/'
           in
           let body' =
             if self_closing then String.sub body' 0 (String.length body' - 1)
             else body'
           in
           let name, attrs =
             match String.index_opt body' ' ' with
             | None -> (body', "")
             | Some k ->
                 ( String.sub body' 0 k,
                   String.sub body' (k + 1) (String.length body' - k - 1) )
           in
           if name = "" then err := Some "nameless tag"
           else
             match f ~name ~attrs ~closing ~self_closing with
             | Ok () -> ()
             | Error e -> err := Some e
         end);
        i := !j + 1
      end
    end
  done;
  match !err with Some e -> Error e | None -> Ok ()

(* Pull every value of the given attribute out of a raw attribute
   string (values are always double-quoted by our emitters). *)
let attr_values ~attr attrs acc =
  let needle = attr ^ "=\"" in
  let rec go from acc =
    match
      if from > String.length attrs - String.length needle then None
      else
        let rec find i =
          if i + String.length needle > String.length attrs then None
          else if String.sub attrs i (String.length needle) = needle then
            Some i
          else find (i + 1)
        in
        find from
    with
    | None -> acc
    | Some i ->
        let v_start = i + String.length needle in
        let v_end = try String.index_from attrs v_start '"' with Not_found ->
          String.length attrs
        in
        go (v_end + 1) (String.sub attrs v_start (v_end - v_start) :: acc)
  in
  go 0 acc

let is_finite_float str =
  match float_of_string_opt str with
  | Some f -> Float.is_finite f
  | None -> false

let check_points pts =
  let pairs = String.split_on_char ' ' pts in
  let pairs = List.filter (fun p -> p <> "") pairs in
  if List.length pairs < 2 then
    Error (Printf.sprintf "points %S: fewer than 2 pairs" pts)
  else
    List.fold_left
      (fun acc pair ->
        let* () = acc in
        match String.split_on_char ',' pair with
        | [ x; y ] when is_finite_float x && is_finite_float y -> Ok ()
        | _ -> Error (Printf.sprintf "points pair %S not finite x,y" pair))
      (Ok ()) pairs

let validate_structure ~required_classes ?(min_samples = 2) doc =
  let* () =
    if String.length doc >= 15 && String.sub doc 0 15 = "<!DOCTYPE html>" then
      Ok ()
    else Error "missing <!DOCTYPE html> prologue"
  in
  let stack = ref [] in
  let classes = ref [] in
  let samples = ref None in
  let points = ref [] in
  let* () =
    scan_tags doc (fun ~name ~attrs ~closing ~self_closing ->
        (match name with
        | "script" | "link" | "img" | "iframe" ->
            Error ("external-resource tag <" ^ name ^ "> in report")
        | _ -> Ok ())
        |> fun ok ->
        let* () = ok in
        if closing then
          match !stack with
          | top :: rest when top = name ->
              stack := rest;
              Ok ()
          | top :: _ ->
              Error (Printf.sprintf "mismatched </%s> (open: <%s>)" name top)
          | [] -> Error (Printf.sprintf "stray </%s>" name)
        else begin
          classes := attr_values ~attr:"class" attrs !classes;
          points := attr_values ~attr:"points" attrs !points;
          if name = "svg" && !samples = None then
            samples :=
              Some (attr_values ~attr:"data-samples" attrs [] |> function
                    | v :: _ -> int_of_string_opt v
                    | [] -> None);
          if not self_closing then stack := name :: !stack;
          Ok ()
        end)
  in
  let* () =
    match !stack with
    | [] -> Ok ()
    | top :: _ -> Error (Printf.sprintf "unclosed <%s>" top)
  in
  let class_tokens =
    List.concat_map (fun c -> String.split_on_char ' ' c) !classes
  in
  let* () =
    List.fold_left
      (fun acc need ->
        let* () = acc in
        if List.mem need class_tokens then Ok ()
        else Error (Printf.sprintf "missing element class %S" need))
      (Ok ()) required_classes
  in
  let* () =
    match !samples with
    | Some (Some k) when k >= min_samples -> Ok ()
    | Some (Some k) ->
        Error (Printf.sprintf "data-samples=%d (need >= %d)" k min_samples)
    | Some None -> Error "svg data-samples attribute unreadable"
    | None -> Error "no svg with data-samples found"
  in
  List.fold_left
    (fun acc pts ->
      let* () = acc in
      check_points pts)
    (Ok ()) !points

let validate doc =
  validate_structure ~required_classes:[ "ribbon"; "axis"; "promotion" ] doc
