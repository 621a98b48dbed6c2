(* OpenMetrics text exposition: emitter + structural validator.  The
   emitter is the single writer (no external metrics library), so the
   validator doubles as the regression net for its framing rules. *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let valid_name s =
  String.length s > 0
  && (not (s.[0] >= '0' && s.[0] <= '9'))
  && String.for_all is_name_char s

(* label names are names without ':' *)
let valid_label_name s = valid_name s && not (String.contains s ':')

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Emitter                                                             *)
(* ------------------------------------------------------------------ *)

let family buf ~name ~typ ~help =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)

let label_block labels =
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               if not (valid_label_name k) then
                 invalid_arg ("Openmetrics.render: bad label name " ^ k);
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

module Metrics_snapshot = Otfgc.Metrics_snapshot

let render ?(labels = []) (s : Metrics_snapshot.t) =
  let buf = Buffer.create 4096 in
  family buf ~name:"otfgc_run" ~typ:"info" ~help:"run identity labels";
  Buffer.add_string buf
    (Printf.sprintf "otfgc_run_info%s 1\n" (label_block labels));
  family buf ~name:"otfgc_phase" ~typ:"info"
    ~help:"collector phase at snapshot time";
  Buffer.add_string buf
    (Printf.sprintf "otfgc_phase_info%s 1\n"
       (label_block [ ("phase", s.Metrics_snapshot.phase) ]));
  family buf ~name:"otfgc_snapshot_seq" ~typ:"gauge"
    ~help:"snapshot index within the run";
  Buffer.add_string buf
    (Printf.sprintf "otfgc_snapshot_seq %d\n" s.Metrics_snapshot.seq);
  List.iter
    (fun (name, v) ->
      let fam = "otfgc_" ^ name in
      family buf ~name:fam ~typ:"counter" ~help:("cumulative " ^ name);
      Buffer.add_string buf (Printf.sprintf "%s_total %d\n" fam v))
    (Metrics_snapshot.counters s);
  List.iter
    (fun (name, v) ->
      let fam = "otfgc_" ^ name in
      family buf ~name:fam ~typ:"gauge" ~help:("current " ^ name);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" fam v))
    (Metrics_snapshot.gauges s);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Validator                                                           *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

type fam = { typ : string; mutable samples : int }

(* ["name{...} v"] -> (name, labels option, value).  Labels are checked
   in place: balanced block, comma-separated name="value" pairs, only
   valid escapes inside values. *)
let parse_sample line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do
    incr i
  done;
  let name = String.sub line 0 !i in
  if not (valid_name name) then Error (Printf.sprintf "bad metric name in %S" line)
  else begin
    let* () =
      if !i < n && line.[!i] = '{' then begin
        (* walk the label block *)
        incr i;
        let err = ref None in
        let expect_pair = ref (!i < n && line.[!i] <> '}') in
        while !err = None && !expect_pair do
          (* label name *)
          let s0 = !i in
          while !i < n && is_name_char line.[!i] do
            incr i
          done;
          if not (valid_label_name (String.sub line s0 (!i - s0))) then
            err := Some "bad label name"
          else if !i >= n || line.[!i] <> '=' then err := Some "missing '='"
          else begin
            incr i;
            if !i >= n || line.[!i] <> '"' then err := Some "unquoted label value"
            else begin
              incr i;
              let closed = ref false in
              while (not !closed) && !err = None && !i < n do
                (match line.[!i] with
                | '\\' ->
                    if
                      !i + 1 < n
                      && (line.[!i + 1] = '\\' || line.[!i + 1] = '"'
                        || line.[!i + 1] = 'n')
                    then incr i
                    else err := Some "bad escape in label value"
                | '"' -> closed := true
                | _ -> ());
                incr i
              done;
              if not !closed then err := Some "unterminated label value"
              else if !i < n && line.[!i] = ',' then incr i
              else expect_pair := false
            end
          end
        done;
        match !err with
        | Some e -> Error (Printf.sprintf "%s in %S" e line)
        | None ->
            if !i < n && line.[!i] = '}' then begin
              incr i;
              Ok ()
            end
            else Error (Printf.sprintf "unterminated label block in %S" line)
      end
      else Ok ()
    in
    if !i >= n || line.[!i] <> ' ' then
      Error (Printf.sprintf "missing value in %S" line)
    else begin
      let value = String.sub line (!i + 1) (n - !i - 1) in
      match float_of_string_opt value with
      | Some f when Float.is_finite f -> Ok name
      | _ -> Error (Printf.sprintf "non-finite value %S in %S" value line)
    end
  end

(* family a sample name belongs to, given its declared type *)
let family_of_sample ~typ name =
  let strip suffix =
    if Filename.check_suffix name suffix then
      Some (String.sub name 0 (String.length name - String.length suffix))
    else None
  in
  match typ with
  | "counter" -> strip "_total"
  | "info" -> strip "_info"
  | _ -> Some name

let validate doc =
  let lines = String.split_on_char '\n' doc in
  (* a trailing newline yields one final "" element; anything else after
     the EOF line is a framing error *)
  let* lines =
    match List.rev lines with
    | "" :: rev -> Ok (List.rev rev)
    | _ -> Error "missing trailing newline"
  in
  let* () =
    match List.rev lines with
    | "# EOF" :: _ -> Ok ()
    | _ -> Error "last line is not # EOF"
  in
  let fams : (string, fam) Hashtbl.t = Hashtbl.create 64 in
  let current = ref None in
  let eof_seen = ref false in
  let check_line line =
    if !eof_seen then Error "content after # EOF"
    else if line = "# EOF" then begin
      eof_seen := true;
      Ok ()
    end
    else if line = "" then Error "blank line"
    else if String.length line > 1 && line.[0] = '#' then begin
      match String.split_on_char ' ' line with
      | "#" :: kind :: name :: rest -> (
          match kind with
          | "HELP" ->
              if rest = [] then Error ("HELP without text: " ^ line)
              else if not (valid_name name) then
                Error ("bad family name in " ^ line)
              else Ok ()
          | "TYPE" -> (
              match rest with
              | [ typ ] when List.mem typ [ "counter"; "gauge"; "info" ] ->
                  if Hashtbl.mem fams name then
                    Error (Printf.sprintf "family %s declared twice" name)
                  else if not (valid_name name) then
                    Error ("bad family name in " ^ line)
                  else begin
                    Hashtbl.add fams name { typ; samples = 0 };
                    current := Some name;
                    Ok ()
                  end
              | [ typ ] -> Error (Printf.sprintf "unknown type %S" typ)
              | _ -> Error ("malformed TYPE line: " ^ line))
          | _ -> Error ("unknown comment kind: " ^ line))
      | _ -> Error ("malformed comment line: " ^ line)
    end
    else
      let* sample_name = parse_sample line in
      match !current with
      | None -> Error ("sample before any # TYPE: " ^ line)
      | Some fam_name -> (
          let fam = Hashtbl.find fams fam_name in
          match family_of_sample ~typ:fam.typ sample_name with
          | Some f when f = fam_name ->
              fam.samples <- fam.samples + 1;
              Ok ()
          | _ ->
              Error
                (Printf.sprintf
                   "sample %s does not belong to %s family %s (samples must \
                    follow their family's # TYPE)"
                   sample_name fam.typ fam_name))
  in
  let* () =
    List.fold_left
      (fun acc line ->
        let* () = acc in
        check_line line)
      (Ok ()) lines
  in
  Hashtbl.fold
    (fun name fam acc ->
      let* () = acc in
      if fam.samples = 0 then
        Error (Printf.sprintf "family %s has no samples" name)
      else Ok ())
    fams (Ok ())
