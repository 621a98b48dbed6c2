(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   record field would box a fresh Int64 on every draw, and the scheduler
   draws once per simulated step. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let make seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function: mix the advanced state through two
   xor-shift-multiply rounds. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t =
  (* A distinct mixing constant decorrelates the child stream from the
     parent's continuation. *)
  let s = bits64 t in
  of_state (Int64.mul s 0xDA942042E4DD58B5L)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 random bits scaled into [0,1). *)
  r /. 9007199254740992.0 *. bound

let chance t p = if p <= 0. then false else if p >= 1. then true else float t 1.0 < p

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1. then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0. then epsilon_float else u in
    int_of_float (Float.floor (Float.log u /. Float.log (1. -. p)))

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. Float.log u

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_weighted t choices =
  if Array.length choices = 0 then invalid_arg "Rng.pick_weighted: empty array";
  let total = Array.fold_left (fun acc (_, w) -> acc +. Float.max w 0.) 0. choices in
  if total <= 0. then invalid_arg "Rng.pick_weighted: zero total weight";
  let x = float t total in
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

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
