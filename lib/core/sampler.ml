type t = {
  mutable every : int; (* cost units between samples; 0 = sampling off *)
  mutable next_at : int; (* elapsed-time threshold for the next sample *)
  mutable rows : Metrics_snapshot.t list; (* newest first *)
  mutable length : int;
}

let create () = { every = 0; next_at = 0; rows = []; length = 0 }

let configure t ~every =
  if every < 0 then invalid_arg "Sampler.configure: negative interval";
  t.every <- every;
  t.next_at <- 0

let push t row =
  t.rows <- row :: t.rows;
  t.length <- t.length + 1

let rows t = List.rev t.rows
let last t = match t.rows with row :: _ -> Some row | [] -> None
let length t = t.length

let reset t =
  t.rows <- [];
  t.length <- 0;
  t.next_at <- 0
