(* Unit and property tests for otfgc_support: RNG determinism and
   distribution sanity, bitset semantics, statistics accumulators and table
   rendering. *)

open Otfgc_support

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.make 42 and b = Rng.make 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.make 1 and b = Rng.make 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check "different seeds diverge" true (!same < 4)

let test_rng_copy () =
  let a = Rng.make 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy continues identically" (Rng.bits64 a)
      (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.make 9 in
  let child = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 child then incr same
  done;
  check "split stream independent" true (!same < 4)

let test_rng_int_range () =
  let r = Rng.make 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.make 4 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 2000 do
    let v = Rng.int_in r 5 8 in
    check "in inclusive range" true (v >= 5 && v <= 8);
    if v = 5 then seen_lo := true;
    if v = 8 then seen_hi := true
  done;
  check "hits low endpoint" true !seen_lo;
  check "hits high endpoint" true !seen_hi

let test_rng_int_invalid () =
  let r = Rng.make 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.make 6 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    check "float in range" true (v >= 0. && v < 2.5)
  done

let test_rng_chance_extremes () =
  let r = Rng.make 7 in
  for _ = 1 to 50 do
    check "p=0 never" false (Rng.chance r 0.);
    check "p=1 always" true (Rng.chance r 1.)
  done

let test_rng_chance_mean () =
  let r = Rng.make 8 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.chance r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  check "p=0.3 within tolerance" true (p > 0.27 && p < 0.33)

let test_rng_geometric_mean () =
  let r = Rng.make 9 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Rng.geometric r 0.25
  done;
  (* mean failures before success = (1-p)/p = 3 *)
  let mean = float_of_int !total /. float_of_int n in
  check "geometric mean ~3" true (mean > 2.7 && mean < 3.3)

let test_rng_exponential_mean () =
  let r = Rng.make 10 in
  let total = ref 0. in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total +. Rng.exponential r 5.0
  done;
  let mean = !total /. float_of_int n in
  check "exponential mean ~5" true (mean > 4.6 && mean < 5.4)

let test_rng_pick () =
  let r = Rng.make 11 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let v = Rng.pick r [| 0; 1; 2 |] in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter (fun c -> check "roughly uniform" true (c > 800 && c < 1200)) counts

let test_rng_pick_weighted () =
  let r = Rng.make 12 in
  let heavy = ref 0 and light = ref 0 in
  for _ = 1 to 10_000 do
    match Rng.pick_weighted r [| ("heavy", 9.); ("light", 1.) |] with
    | "heavy" -> incr heavy
    | _ -> incr light
  done;
  check "weights respected" true
    (float_of_int !heavy /. float_of_int (!heavy + !light) > 0.85)

let test_rng_pick_weighted_zero () =
  let r = Rng.make 13 in
  Alcotest.check_raises "zero weights rejected"
    (Invalid_argument "Rng.pick_weighted: zero total weight") (fun () ->
      ignore (Rng.pick_weighted r [| ("a", 0.) |]))

let test_rng_shuffle_permutation () =
  let r = Rng.make 14 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 20 Fun.id) sorted

(* The generator as a boxed [mutable int64] record, the representation
   [Rng] had before its state moved into a byte buffer.  Every simulated
   schedule and workload draw comes from [Rng], so the streams must not
   change by a single bit. *)
module Reference_rng = struct
  type t = { mutable state : int64 }

  let make seed = { state = Int64.of_int seed }
  let copy t = { state = t.state }

  let mix64 z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let bits64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix64 t.state

  let split t = { state = Int64.mul (bits64 t) 0xDA942042E4DD58B5L }
  let int t bound = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) mod bound
  let bool t = Int64.logand (bits64 t) 1L = 1L

  let float t bound =
    Int64.to_float (Int64.shift_right_logical (bits64 t) 11)
    /. 9007199254740992.0 *. bound

  let pick t a = a.(int t (Array.length a))
end

type rng_draw = Int of int | Float of float | Bool | Pick of int

type rng_route = Made | Split | Copied

(* Derive a generator by [route], then record every draw, then four raw
   words from the generator it was derived from. *)
let rng_stream ~make ~split ~copy ~bits64 ~int ~float ~bool ~pick (seed, route, draws) =
  let root = make seed in
  let g = match route with Made -> root | Split -> split root | Copied -> copy root in
  let values =
    List.map
      (function
        | Int b -> `I (int g b)
        | Float b -> `F (Int64.bits_of_float (float g b))
        | Bool -> `B (bool g)
        | Pick n -> `I (pick g (Array.init n (fun i -> 100 + i))))
      draws
  in
  values @ List.init 4 (fun _ -> `W (bits64 root))

let prop_rng_matches_reference =
  let draw =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map
              (fun b -> Int b)
              (oneof
                 [ int_range 1 100; int_range 1 max_int; map (( lsl ) 1) (int_range 0 61) ])
          );
          (2, map (fun b -> Float b) (float_range 0.001 1e6));
          (2, return Bool);
          (2, map (fun n -> Pick n) (int_range 1 8));
        ])
  in
  let route = QCheck.Gen.oneofl [ Made; Split; Copied ] in
  QCheck.Test.make ~name:"unboxed Rng matches the record SplitMix64" ~count:500
    (QCheck.make
       QCheck.Gen.(triple int route (list_size (int_range 0 40) draw)))
    (fun case ->
      rng_stream ~make:Rng.make ~split:Rng.split ~copy:Rng.copy ~bits64:Rng.bits64
        ~int:Rng.int ~float:Rng.float ~bool:Rng.bool ~pick:Rng.pick case
      = Reference_rng.(
          rng_stream ~make ~split ~copy ~bits64 ~int ~float ~bool ~pick case))

(* [Rng.pick_weighted] as it was before it stopped allocating: a fold
   for the total, then an iteration with a ref and an option. *)
let old_pick_weighted t choices =
  if Array.length choices = 0 then invalid_arg "Rng.pick_weighted: empty array";
  let total = Array.fold_left (fun acc (_, w) -> acc +. Float.max w 0.) 0. choices in
  if total <= 0. then invalid_arg "Rng.pick_weighted: zero total weight";
  let x = Rng.float t total in
  let acc = ref 0. in
  let result = ref None in
  Array.iter
    (fun (v, w) ->
      if !result = None then begin
        acc := !acc +. Float.max w 0.;
        if x < !acc then result := Some v
      end)
    choices;
  match !result with Some v -> v | None -> fst choices.(Array.length choices - 1)

let prop_pick_weighted_matches_old =
  let weight =
    QCheck.Gen.(
      frequency
        [
          (6, float_range 0. 100.);
          (1, return 0.);
          (1, float_range (-10.) 0.);
          (1, float_range 1e-300 1e-290);
          (1, return Float.nan);
        ])
  in
  QCheck.Test.make ~name:"allocation-free pick_weighted matches the old one" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair int (list float))
       QCheck.Gen.(pair int (list_size (int_range 0 8) weight)))
    (fun (seed, weights) ->
      let choices = Array.of_list (List.mapi (fun i w -> (i, w)) weights) in
      let draws pick =
        let t = Rng.make seed in
        List.init 20 (fun _ ->
            match pick t choices with
            | v -> Ok v
            | exception Invalid_argument m -> Error m)
      in
      draws Rng.pick_weighted = draws old_pick_weighted)

let test_pick_weighted_allocates_nothing () =
  let r = Rng.make 3 in
  let classes = [| (16, 5.); (32, 3.); (64, 1.5); (256, 0.5) |] in
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum := !sum + Rng.pick_weighted r classes
  done;
  let words = Gc.minor_words () -. w0 in
  check (Printf.sprintf "10^4 picks allocate %.0f words" words) true (words < 64.);
  check "picked" true (!sum > 0)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check "fresh empty" false (Bitset.mem s 5);
  Bitset.add s 5;
  Bitset.add s 99;
  Bitset.add s 0;
  check "mem 5" true (Bitset.mem s 5);
  check "mem 99" true (Bitset.mem s 99);
  check "mem 0" true (Bitset.mem s 0);
  check "not mem 1" false (Bitset.mem s 1);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 5;
  check "removed" false (Bitset.mem s 5);
  check_int "cardinal after remove" 2 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 8)

let test_bitset_clear () =
  let s = Bitset.create 64 in
  for i = 0 to 63 do
    Bitset.add s i
  done;
  check_int "full" 64 (Bitset.cardinal s);
  Bitset.clear s;
  check_int "cleared" 0 (Bitset.cardinal s)

let test_bitset_iter_order () =
  let s = Bitset.create 50 in
  List.iter (Bitset.add s) [ 40; 3; 17; 8 ];
  Alcotest.(check (list int)) "sorted order" [ 3; 8; 17; 40 ] (Bitset.to_list s)

let test_bitset_union () =
  let a = Bitset.create 32 and b = Bitset.create 32 in
  Bitset.add a 1;
  Bitset.add b 2;
  Bitset.add b 1;
  Bitset.union_into ~dst:a b;
  Alcotest.(check (list int)) "union" [ 1; 2 ] (Bitset.to_list a)

let test_bitset_copy_independent () =
  let a = Bitset.create 16 in
  Bitset.add a 3;
  let b = Bitset.copy a in
  Bitset.add b 4;
  check "copy has both" true (Bitset.mem b 3 && Bitset.mem b 4);
  check "original unchanged" false (Bitset.mem a 4)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with a set model" ~count:200
    QCheck.(list (pair bool (int_bound 63)))
    (fun ops ->
      let s = Bitset.create 64 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add s i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove s i;
            Hashtbl.remove model i
          end)
        ops;
      Bitset.cardinal s = Hashtbl.length model
      && List.for_all (fun i -> Hashtbl.mem model i) (Bitset.to_list s))

let prop_bitset_add_range =
  QCheck.Test.make ~name:"add_range agrees with per-element add" ~count:300
    QCheck.(pair (int_bound 99) (int_bound 100))
    (fun (lo, len) ->
      let len = min len (100 - lo) in
      let fast = Bitset.create 100 and slow = Bitset.create 100 in
      (* a little pre-existing content that must survive *)
      List.iter
        (fun i ->
          Bitset.add fast i;
          Bitset.add slow i)
        [ 0; 31; 64; 99 ];
      Bitset.add_range fast lo len;
      for i = lo to lo + len - 1 do
        Bitset.add slow i
      done;
      Bitset.to_list fast = Bitset.to_list slow)

let test_bitset_add_range_bounds () =
  let s = Bitset.create 16 in
  Bitset.add_range s 0 0;
  Bitset.add_range s 15 1;
  check_int "edges" 1 (Bitset.cardinal s);
  Alcotest.check_raises "past end" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add_range s 10 7);
  Alcotest.check_raises "negative length"
    (Invalid_argument "Bitset.add_range: negative length") (fun () ->
      Bitset.add_range s 2 (-1))

(* ------------------------------------------------------------------ *)
(* Bits                                                                *)
(* ------------------------------------------------------------------ *)

let test_bits_log2_exact () =
  check_int "1" 0 (Bits.log2_exact 1);
  check_int "16" 4 (Bits.log2_exact 16);
  check_int "4096" 12 (Bits.log2_exact 4096);
  check "round trip" true
    (List.for_all (fun k -> Bits.log2_exact (1 lsl k) = k)
       [ 0; 1; 5; 12; 20; 30 ]);
  List.iter
    (fun bad ->
      check "rejects non-powers" true
        (match Bits.log2_exact bad with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; -16; 3; 48; 4095 ]

let test_bits_is_pow2 () =
  check "16" true (Bits.is_pow2 16);
  check "1" true (Bits.is_pow2 1);
  check "0" false (Bits.is_pow2 0);
  check "neg" false (Bits.is_pow2 (-4));
  check "48" false (Bits.is_pow2 48)

let test_bits_ctz () =
  check_int "1" 0 (Bits.ctz 1);
  check_int "2" 1 (Bits.ctz 2);
  check_int "12" 2 (Bits.ctz 12);
  check_int "min_int" 62 (Bits.ctz min_int);
  check "every single bit" true
    (List.for_all (fun k -> Bits.ctz (1 lsl k) = k) (List.init 63 Fun.id));
  check "lowest of many" true
    (List.for_all
       (fun k -> Bits.ctz ((1 lsl k) lor (1 lsl 62)) = k)
       (List.init 62 Fun.id));
  check "rejects zero" true
    (match Bits.ctz 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* QCheck round-trips for the Bits helpers: any positive n decomposes as
   (n lsr ctz n) lsl ctz n with an odd quotient, log2_exact inverts
   1 lsl k, and is_pow2 agrees with the popcount characterisation. *)
let prop_bits_ctz_roundtrip =
  QCheck.Test.make ~name:"ctz round-trips any positive int" ~count:500
    QCheck.(map (fun n -> 1 + abs n) int)
    (fun n ->
      let k = Bits.ctz n in
      let q = n lsr k in
      q land 1 = 1 && q lsl k = n)

let prop_bits_log2_roundtrip =
  QCheck.Test.make ~name:"log2_exact inverts 1 lsl k" ~count:200
    QCheck.(int_bound 61)
    (fun k ->
      let n = 1 lsl k in
      Bits.log2_exact n = k && Bits.ctz n = k && Bits.is_pow2 n
      && Bits.popcount n = 1)

let prop_bits_pow2_popcount =
  QCheck.Test.make ~name:"is_pow2 iff popcount = 1" ~count:500
    QCheck.(map abs int)
    (fun n -> Bits.is_pow2 n = (n > 0 && Bits.popcount n = 1))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = Array.init 100 Fun.id in
      let ys = Pool.map p (fun x -> x * x) xs in
      check "order preserved" true (ys = Array.init 100 (fun i -> i * i)))

let test_pool_sequential_fallback () =
  Pool.with_pool ~jobs:1 (fun p ->
      check_int "jobs" 1 (Pool.jobs p);
      let ys = Pool.map p string_of_int [| 1; 2; 3 |] in
      check "seq map" true (ys = [| "1"; "2"; "3" |]))

let test_pool_empty_batch () =
  Pool.with_pool ~jobs:2 (fun p ->
      check_int "empty" 0 (Array.length (Pool.run p [||])))

let test_pool_reusable () =
  Pool.with_pool ~jobs:3 (fun p ->
      let a = Pool.map p succ (Array.init 10 Fun.id) in
      let b = Pool.map p pred (Array.init 10 Fun.id) in
      check "first batch" true (a = Array.init 10 succ);
      check "second batch" true (b = Array.init 10 pred))

let test_pool_exception_lowest_index () =
  Pool.with_pool ~jobs:3 (fun p ->
      match
        Pool.run p
          [|
            (fun () -> 1);
            (fun () -> failwith "first");
            (fun () -> failwith "second");
          |]
      with
      | _ -> check "should raise" true false
      | exception Failure m ->
          Alcotest.(check string) "lowest-index error wins" "first" m)

let test_pool_bad_jobs () =
  check "jobs < 1 rejected" true
    (match Pool.create ~jobs:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_empty () =
  let s = Stats.create () in
  check_int "count" 0 (Stats.count s);
  Alcotest.(check (float 0.0)) "mean" 0. (Stats.mean s)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4. ];
  check_int "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 4. (Stats.max s);
  Alcotest.(check (float 1e-9)) "sum" 10. (Stats.sum s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a 1.;
  Stats.add b 5.;
  Stats.add b 3.;
  let m = Stats.merge a b in
  check_int "merged count" 3 (Stats.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 3. (Stats.mean m);
  Alcotest.(check (float 1e-9)) "merged min" 1. (Stats.min m);
  Alcotest.(check (float 1e-9)) "merged max" 5. (Stats.max m)

let test_improvement_pct () =
  Alcotest.(check (float 1e-9)) "25% better" 25.
    (Stats.improvement_pct ~baseline:100. ~candidate:75.);
  Alcotest.(check (float 1e-9)) "4% worse" (-4.)
    (Stats.improvement_pct ~baseline:100. ~candidate:104.);
  Alcotest.(check (float 1e-9)) "zero baseline" 0.
    (Stats.improvement_pct ~baseline:0. ~candidate:10.)

let test_pct () =
  Alcotest.(check (float 1e-9)) "pct" 36.2 (Stats.pct 36.2 100.);
  Alcotest.(check (float 1e-9)) "pct zero whole" 0. (Stats.pct 5. 0.)

(* ------------------------------------------------------------------ *)
(* Textable                                                            *)
(* ------------------------------------------------------------------ *)

let test_textable_render () =
  let t = Textable.create ~title:"Demo" [ "Benchmark"; "Value" ] in
  Textable.add_row t [ "anagram"; "25.0" ];
  Textable.add_row t [ "jess" ];
  let s = Textable.render t in
  check "has title" true (String.length s > 0 && String.sub s 0 4 = "Demo");
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check "anagram present" true (contains s "anagram");
  check "padded row" true (contains s "jess")

let test_textable_too_many_cells () =
  let t = Textable.create [ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Textable.add_row: too many cells") (fun () ->
      Textable.add_row t [ "1"; "2" ])

let test_textable_formats () =
  Alcotest.(check string) "pct" "-3.7" (Textable.fmt_pct (-3.7));
  Alcotest.(check string) "f2" "36.20" (Textable.fmt_f2 36.2);
  Alcotest.(check string) "int" "281" (Textable.fmt_int 280.7);
  Alcotest.(check string) "na" "N/A" Textable.na

let suites =
  [
    ( "support.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int_in range" `Quick test_rng_int_in;
        Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        Alcotest.test_case "chance mean" `Quick test_rng_chance_mean;
        Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "pick uniform" `Quick test_rng_pick;
        Alcotest.test_case "pick weighted" `Quick test_rng_pick_weighted;
        Alcotest.test_case "pick weighted zero" `Quick test_rng_pick_weighted_zero;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        QCheck_alcotest.to_alcotest prop_rng_matches_reference;
        QCheck_alcotest.to_alcotest prop_pick_weighted_matches_old;
        Alcotest.test_case "pick weighted allocates nothing" `Quick
          test_pick_weighted_allocates_nothing;
      ] );
    ( "support.bitset",
      [
        Alcotest.test_case "basic" `Quick test_bitset_basic;
        Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "clear" `Quick test_bitset_clear;
        Alcotest.test_case "iter order" `Quick test_bitset_iter_order;
        Alcotest.test_case "union" `Quick test_bitset_union;
        Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
        QCheck_alcotest.to_alcotest prop_bitset_model;
        Alcotest.test_case "add_range bounds" `Quick test_bitset_add_range_bounds;
        QCheck_alcotest.to_alcotest prop_bitset_add_range;
      ] );
    ( "support.bits",
      [
        Alcotest.test_case "log2_exact" `Quick test_bits_log2_exact;
        Alcotest.test_case "is_pow2" `Quick test_bits_is_pow2;
        Alcotest.test_case "ctz" `Quick test_bits_ctz;
        QCheck_alcotest.to_alcotest prop_bits_ctz_roundtrip;
        QCheck_alcotest.to_alcotest prop_bits_log2_roundtrip;
        QCheck_alcotest.to_alcotest prop_bits_pow2_popcount;
      ] );
    ( "support.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_pool_map_preserves_order;
        Alcotest.test_case "sequential fallback" `Quick test_pool_sequential_fallback;
        Alcotest.test_case "empty batch" `Quick test_pool_empty_batch;
        Alcotest.test_case "reusable" `Quick test_pool_reusable;
        Alcotest.test_case "exception lowest index" `Quick
          test_pool_exception_lowest_index;
        Alcotest.test_case "bad jobs" `Quick test_pool_bad_jobs;
      ] );
    ( "support.stats",
      [
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "basic" `Quick test_stats_basic;
        Alcotest.test_case "merge" `Quick test_stats_merge;
        Alcotest.test_case "improvement pct" `Quick test_improvement_pct;
        Alcotest.test_case "pct" `Quick test_pct;
      ] );
    ( "support.textable",
      [
        Alcotest.test_case "render" `Quick test_textable_render;
        Alcotest.test_case "too many cells" `Quick test_textable_too_many_cells;
        Alcotest.test_case "formats" `Quick test_textable_formats;
      ] );
  ]
