module Page_set = Otfgc_heap.Page_set

type t = { cost : Cost.t; tel : Telemetry.t; pages : Page_set.t }

let create tables =
  { cost = Cost.create (); tel = Telemetry.create (); pages = Page_set.create tables }

let reset t =
  Cost.reset t.cost;
  Telemetry.reset t.tel;
  Page_set.reset t.pages

let fold tables = function
  | [ l ] -> l
  | ls ->
      let sum = create tables in
      List.iter
        (fun l ->
          Cost.merge_into ~src:l.cost ~dst:sum.cost;
          Telemetry.merge_into ~src:l.tel ~dst:sum.tel;
          Page_set.merge_into ~src:l.pages ~dst:sum.pages)
        ls;
      sum
