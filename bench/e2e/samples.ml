(* A growable int store in an unboxed Bigarray — raw duration samples (ns),
   and the traced client's kept spans.  The OCaml GC never scans it and
   [add] does not allocate, except when the store doubles.  Percentiles are
   exact order statistics of the sorted samples: the log-bucketed
   [Histogram] is too coarse for a benchmark's p99.99. *)

open Bigarray

type t = { mutable data : (int, int_elt, c_layout) Array1.t; mutable n : int }

let create capacity = { data = Array1.create int c_layout (max 16 capacity); n = 0 }

let add t v =
  if t.n = Array1.dim t.data then begin
    let bigger = Array1.create int c_layout (2 * t.n) in
    Array1.blit t.data (Array1.sub bigger 0 t.n);
    t.data <- bigger
  end;
  Array1.unsafe_set t.data t.n v;
  t.n <- t.n + 1

let count t = t.n
let get t i = t.data.{i}
let clear t = t.n <- 0

(* The samples from index [from] on, sorted. *)
let sorted ?(from = 0) t =
  let a = Array.init (t.n - from) (fun i -> Array1.unsafe_get t.data (from + i)) in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile of a sorted array, [0] when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median_float l =
  match List.sort Float.compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
