(** The catalogue of reproduced experiments: every table/figure of the
    paper's evaluation section, keyed by its figure number. *)

type entry = {
  id : string;  (** e.g. ["fig9"] *)
  title : string;
  heavy : bool;
      (** parameter sweeps (Figures 16–23 and the ablations) that run
          dozens of configurations; {!regenerate} runs them at half the
          headline scale *)
  configs : Lab.cfg list;
      (** the figure's whole configuration grid, enumerated up front so
          {!regenerate} can batch several figures into one
          {!Lab.run_many} submission *)
  run : Lab.t -> Otfgc_support.Textable.t;
}

val all : entry list
(** In figure order, 7 through 23, followed by the two ablations this
    reproduction adds (cards vs remembered sets; dynamic tenuring). *)

val find : string -> entry option
(** Look up by id ("fig7" .. "fig23", "ablationA", "ablationB"). *)

val regenerate :
  scale:float ->
  ?seed:int ->
  ?jobs:int ->
  ?cache_dir:string option ->
  entry list ->
  Otfgc_support.Textable.t list * Lab.counters
(** Render [entries], in order, at the one scale convention of
    EXPERIMENTS.md: headline figures on a lab at [scale], {!heavy}
    sweeps on a second lab at [scale /. 2].  Each lab's share of the
    grids is prefetched as one batch before any table is rendered.
    Returns the tables and the two labs' summed counters; the other
    arguments are {!Lab.create}'s. *)
