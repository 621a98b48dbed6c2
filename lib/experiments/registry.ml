type entry = {
  id : string;
  title : string;
  heavy : bool;
  configs : Lab.cfg list;
  run : Lab.t -> Otfgc_support.Textable.t;
}

let all =
  [
    {
      id = "fig7";
      title = "Ray Tracer improvement vs thread count";
      heavy = false;
      configs = Fig07.configs;
      run = Fig07.run;
    };
    { id = "fig8"; title = "Anagram improvement"; heavy = false; configs = Fig08.configs;
      run = Fig08.run; };
    {
      id = "fig9";
      title = "SPECjvm improvements (multi & uni)";
      heavy = false;
      configs = Fig09.configs;
      run = Fig09.run;
    };
    { id = "fig10"; title = "GC activity and cycle counts"; heavy = false; configs = Fig10.configs;
      run = Fig10.run; };
    { id = "fig11"; title = "Objects scanned per collection"; heavy = false; configs = Fig11.configs;
      run = Fig11.run; };
    { id = "fig12"; title = "Percent freed per collection"; heavy = false; configs = Fig12.configs;
      run = Fig12.run; };
    { id = "fig13"; title = "Collection cycle cost"; heavy = false; configs = Fig13.configs;
      run = Fig13.run; };
    { id = "fig14"; title = "Average gain from collections"; heavy = false; configs = Fig14.configs;
      run = Fig14.run; };
    { id = "fig15"; title = "Pages touched per collection"; heavy = false; configs = Fig15.configs;
      run = Fig15.run; };
    {
      id = "fig16";
      title = "Young-size tuning, Ray Tracer";
      heavy = true;
      configs = Fig16.configs;
      run = Fig16.run;
    };
    { id = "fig17"; title = "Young-size tuning, benchmarks"; heavy = true; configs = Fig17.configs;
      run = Fig17.run; };
    { id = "fig18"; title = "Aging thresholds 4 & 6"; heavy = true; configs = Fig18.configs;
      run = Fig18.run; };
    { id = "fig19"; title = "Aging thresholds 8 & 10"; heavy = true; configs = Fig19.configs;
      run = Fig19.run; };
    { id = "fig20"; title = "Aging overhead vs simple promotion"; heavy = true; configs = Fig20.configs;
      run = Fig20.run; };
    { id = "fig21"; title = "Card-size improvement sweep"; heavy = true; configs = Fig21.configs;
      run = Fig21.run; };
    { id = "fig22"; title = "Dirty-card percentage per card size"; heavy = true; configs = Fig22.configs;
      run = Fig22.run; };
    { id = "fig23"; title = "Card scan area per card size"; heavy = true; configs = Fig23.configs;
      run = Fig23.run; };
    {
      id = "ablationA";
      title = "Cards vs remembered sets (Section 3.1's road not taken)";
      heavy = true;
      configs = Ablation_intergen.configs;
      run = Ablation_intergen.run;
    };
    {
      id = "ablationB";
      title = "Dynamic tenuring (Section 6's future-work remark)";
      heavy = true;
      configs = Ablation_adaptive.configs;
      run = Ablation_adaptive.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let regenerate ~scale ?seed ?jobs ?cache_dir entries =
  let headline = Lab.create ~scale ?seed ?jobs ?cache_dir ()
  and sweep = Lab.create ~scale:(scale /. 2.) ?seed ?jobs ?cache_dir () in
  let grids heavy =
    List.concat_map (fun e -> if e.heavy = heavy then e.configs else []) entries
  in
  Lab.prefetch headline (grids false);
  Lab.prefetch sweep (grids true);
  let tables =
    List.map (fun e -> e.run (if e.heavy then sweep else headline)) entries
  in
  let a = Lab.counters headline and b = Lab.counters sweep in
  ( tables,
    Lab.
      {
        computed = a.computed + b.computed;
        mem_hits = a.mem_hits + b.mem_hits;
        disk_hits = a.disk_hits + b.disk_hits;
      } )
