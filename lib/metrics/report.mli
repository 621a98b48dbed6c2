(** Self-contained HTML/SVG report of a sampled run — the observatory's
    visual export (occupancy ribbons per color, collector-activity
    strips, promotion-rate line).

    The document is one HTML string with inline CSS and inline SVG
    (hand-rolled via {!Otfgc_support.Svg}): no scripts, no external
    references, so the file opens anywhere and can be archived as a CI
    artifact.  The x axis of every panel is simulated elapsed time
    (work units), mirroring the paper's Figures 7–9 occupancy-over-time
    presentation. *)

val of_runtime :
  ?workload:string -> Otfgc.Runtime.t -> (string, string) result
(** Render the census rows of the runtime's {!Otfgc.Sampler} store
    (and, when the event recorder was armed, its handshake/cycle/stall
    strips) to a complete HTML document.  [Error] when fewer than two
    rows carry a census — run with sampling armed ([--sample-every])
    first. *)

val page :
  title:string ->
  style:string ->
  heading:string ->
  meta:string ->
  (string * Otfgc_support.Svg.t) list ->
  string
(** The document scaffold shared with the trajectory dashboard: the
    doctype, head ([title], inline [style]), an [h1] [heading] and a
    [meta] paragraph, then one [chart] division per [(h2, svg)] panel.
    Text is HTML-escaped; [style] is inserted verbatim and must hold no
    ['<'] or ['>']. *)

val validate : string -> (unit, string) result
(** Structural acceptance check used by tests and
    [gcsim validate report]: the document is a [<!DOCTYPE html>] file
    whose tags balance; it embeds at least one SVG carrying a
    [data-samples] count >= 2; the occupancy ribbons, axis labels and
    promotion line are present (by class); every [points] attribute
    parses as two or more finite coordinate pairs; and nothing
    references external resources (no script/link/img). *)

val validate_structure :
  required_classes:string list ->
  ?min_samples:int ->
  string ->
  (unit, string) result
(** The generic core of {!validate}, shared with the trajectory
    dashboard: same doctype/tag-balance/points/no-external-resource
    checks, but the caller names the element classes that must appear
    and the minimum [data-samples] count (default 2). *)
