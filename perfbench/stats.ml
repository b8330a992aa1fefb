(* Order statistics over benchmark samples. Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive"
   method), so the spread this program reports is the spread a
   Python-side reader computes from the same values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quantiles ~n xs =
  let a = sorted xs in
  let ld = Array.length a in
  if n < 1 then invalid_arg "Stats.quantiles: n must be at least 1";
  if ld < 2 then invalid_arg "Stats.quantiles: need at least two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n)

let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

(* The estimate of a unit's time from its samples in one run: the
   fastest. On a shared machine other tenants' load only ever adds
   time, and it comes and goes within a run, so a run's fast samples
   show the code's own cost even when most of the run was slowed. Over
   ten runs on a 2-vCPU VM the minimum spread least of the minimum and
   the ranks n/30, n/20 and n/10. *)
let fastest = function
  | [] -> invalid_arg "Stats.fastest: no samples"
  | x :: xs -> List.fold_left Float.min x xs

let iqr_share xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

(* The highest percentile with at least ten samples beyond it: with [n]
   sorted samples the value of rank [n - 10] has exactly ten above it,
   and sits at percentile [100 (n - 10) / n]. *)
let supported_percentile xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 10 then None
  else Some (100. *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

let geomean xs =
  if xs = [] then invalid_arg "Stats.geomean: no values";
  List.iter (fun x -> if not (x > 0.) then invalid_arg "Stats.geomean: non-positive value") xs;
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Names whose values differ between two counter sets, including names
   present in only one of them. Two runs of the same code on the same
   seed agree when this is empty. *)
let counter_diff a b =
  let keys = List.sort_uniq String.compare (List.map fst a @ List.map fst b) in
  List.filter (fun k -> List.assoc_opt k a <> List.assoc_opt k b) keys
