(* Order statistics over small samples, matching Python's
   [statistics.median] and [statistics.quantiles(data, n=4)] (the
   default "exclusive" method), so the quartiles printed here are the
   ones a reader recomputes from the raw samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [(q1, q3)]; a single sample is its own quartiles. *)
let quartiles xs =
  match sorted xs with
  | [||] -> (0., 0.)
  | [| x |] -> (x, x)
  | a ->
      let n = Array.length a in
      let m = n + 1 in
      let q i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 3)

(* Nearest-rank percentile of an unsorted int sample, [p] in [0, 1]. *)
let percentile_int (samples : int array) p =
  let n = Array.length samples in
  if n = 0 then 0
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let ratio num den = if den = 0. then 0. else num /. den
let pct num den = 100. *. ratio num den
