(* Order statistics and metric-name rules shared by the benchmark and its
   self-test. *)

(* Nearest-rank quantile of an already sorted array: the smallest sample
   with at least [q * n] samples at or below it. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pb_stats.quantile_sorted: empty";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median_float l =
  match List.sort compare l with
  | [] -> invalid_arg "Pb_stats.median_float: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Candidate tail percentiles, highest first. *)
let tail_candidates = [ 0.9999; 0.999; 0.99; 0.9 ]

(* The highest candidate percentile, at most [max], with at least 10
   samples beyond it, so a reported tail never rests on fewer than ten
   observations.  [None] below 100 samples. *)
let tail_percentile ?(max = 1.) n =
  List.find_opt
    (fun q -> q <= max && float_of_int n *. (1. -. q) >= 10. -. 1e-9)
    tail_candidates

let percentile_label q = Printf.sprintf "p%g" (q *. 100.)

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
