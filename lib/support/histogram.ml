(* Bucketing: values below 16 get exact unit buckets (indices 0..15); a
   value with highest set bit e >= 4 lands in major bucket e, which owns
   16 sub-buckets of width 2^(e-4) at indices (e-3)*16 .. (e-3)*16+15.
   With 63-bit ints the largest exponent is 62, so the table tops out at
   index (62-3)*16 + 15 = 959. *)

let n_slots = 960
let sub_bits = 4
let sub = 1 lsl sub_bits (* 16 *)

type t = {
  counts : int array;
  mutable count : int;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { counts = Array.make n_slots 0; count = 0; total = 0; min_v = 0; max_v = 0 }

let clear t =
  Array.fill t.counts 0 n_slots 0;
  t.count <- 0;
  t.total <- 0;
  t.min_v <- 0;
  t.max_v <- 0

(* Highest set bit of a positive int, without allocation. *)
let log2_floor v =
  let r = if v lsr 32 <> 0 then 32 else 0 in
  let v = v lsr r in
  let r = r + if v lsr 16 <> 0 then 16 else 0 in
  let v = if v lsr 16 <> 0 then v lsr 16 else v in
  let r = r + if v lsr 8 <> 0 then 8 else 0 in
  let v = if v lsr 8 <> 0 then v lsr 8 else v in
  let r = r + if v lsr 4 <> 0 then 4 else 0 in
  let v = if v lsr 4 <> 0 then v lsr 4 else v in
  let r = r + if v lsr 2 <> 0 then 2 else 0 in
  let v = if v lsr 2 <> 0 then v lsr 2 else v in
  r + if v lsr 1 <> 0 then 1 else 0

let slot_of v =
  if v < sub then v
  else
    let e = log2_floor v in
    ((e - sub_bits + 1) * sub) + ((v lsr (e - sub_bits)) land (sub - 1))

(* Inclusive value range of a slot (inverse of [slot_of]). *)
let bounds slot =
  if slot < sub then (slot, slot)
  else
    let e = (slot / sub) + sub_bits - 1 in
    let u = slot land (sub - 1) in
    let width = 1 lsl (e - sub_bits) in
    let lo = (sub + u) * width in
    (lo, lo + width - 1)

let record t v =
  let v = if v < 0 then 0 else v in
  t.counts.(slot_of v) <- t.counts.(slot_of v) + 1;
  t.total <- t.total + v;
  if t.count = 0 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end;
  t.count <- t.count + 1

let count t = t.count
let total t = t.total
let min_value t = t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then 0. else float_of_int t.total /. float_of_int t.count

(* Shared percentile walk: find the slot holding the p-th sample, then
   let [pick] choose which edge of the slot's value range to report. *)
let percentile_with t p pick =
  if t.count = 0 then 0
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let target =
      Stdlib.max 1
        (int_of_float (Float.ceil (p /. 100. *. float_of_int t.count)))
    in
    let acc = ref 0 and slot = ref 0 and result = ref (pick t.max_v t.max_v) in
    (try
       while !slot < n_slots do
         acc := !acc + t.counts.(!slot);
         if !acc >= target then begin
           let lo, hi = bounds !slot in
           result := pick lo hi;
           raise Exit
         end;
         incr slot
       done
     with Exit -> ());
    !result
  end

let percentile t p =
  percentile_with t p (fun _lo hi -> Stdlib.min hi t.max_v)

let percentile_lower t p =
  percentile_with t p (fun lo _hi -> Stdlib.max lo t.min_v)

(* The merged histogram is equivalent to recording both sample streams
   into a fresh table: counts add slot-wise and the summary fields
   combine, so no precision is lost beyond the shared bucketing. *)
let merge a b =
  let t = create () in
  for slot = 0 to n_slots - 1 do
    t.counts.(slot) <- a.counts.(slot) + b.counts.(slot)
  done;
  t.count <- a.count + b.count;
  t.total <- a.total + b.total;
  (if t.count > 0 then
     match (a.count, b.count) with
     | 0, _ ->
         t.min_v <- b.min_v;
         t.max_v <- b.max_v
     | _, 0 ->
         t.min_v <- a.min_v;
         t.max_v <- a.max_v
     | _ ->
         t.min_v <- Stdlib.min a.min_v b.min_v;
         t.max_v <- Stdlib.max a.max_v b.max_v);
  t

(* In-place [merge]: fold [src]'s samples into [dst].  Used to sum the
   actors' histograms into a whole-program total without replacing the
   destination value (telemetry holds it by field). *)
let add_into ~src ~dst =
  if src.count > 0 then begin
    for slot = 0 to n_slots - 1 do
      dst.counts.(slot) <- dst.counts.(slot) + src.counts.(slot)
    done;
    if dst.count = 0 then begin
      dst.min_v <- src.min_v;
      dst.max_v <- src.max_v
    end
    else begin
      dst.min_v <- Stdlib.min dst.min_v src.min_v;
      dst.max_v <- Stdlib.max dst.max_v src.max_v
    end;
    dst.count <- dst.count + src.count;
    dst.total <- dst.total + src.total
  end

let iter t f =
  for slot = 0 to n_slots - 1 do
    if t.counts.(slot) <> 0 then begin
      let lo, hi = bounds slot in
      f ~lo ~hi ~count:t.counts.(slot)
    end
  done

let pp ppf t =
  if t.count = 0 then Format.pp_print_string ppf "(empty)"
  else
    Format.fprintf ppf "n=%d min=%d mean=%.1f p50=%d p90=%d p99=%d max=%d"
      t.count t.min_v (mean t) (percentile t 50.) (percentile t 90.)
      (percentile t 99.) t.max_v
