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

(* [int] in two halves, inlined: the scheduler draws once per simulated
   step, before it knows the bound. *)
let[@inline] raw t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* [r >= 0], so a power-of-two bound needs no division *)
let[@inline] reduce r bound =
  if bound land (bound - 1) = 0 then r land (bound - 1) else r mod bound

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  reduce (raw t) bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] float t bound =
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

(* [Float.max w 0.], inlined: a negative weight counts as 0, a NaN stays
   NaN. *)
let[@inline] weight (_, w) = if w > 0. then w else if w <> w then w else 0.

(* Loops over local float refs, which the compiler keeps unboxed, so a
   pick allocates nothing: the engine draws once per simulated
   allocation.  The pick is the first choice whose running sum of weights
   exceeds the draw, the last one if none does. *)
let pick_weighted t choices =
  let n = Array.length choices in
  if n = 0 then invalid_arg "Rng.pick_weighted: empty array";
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. weight choices.(i)
  done;
  if !total <= 0. then invalid_arg "Rng.pick_weighted: zero total weight";
  let x = float t !total in
  let acc = ref 0. in
  let i = ref 0 in
  while
    !i < n - 1
    &&
    (acc := !acc +. weight choices.(!i);
     not (x < !acc))
  do
    incr i
  done;
  fst choices.(!i)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
