type t = Flight_recorder.t

let clear = Flight_recorder.clear
