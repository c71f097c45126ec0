(* Order statistics used by the benchmark.  [median] and [quartiles]
   follow Python's [statistics.median] / [statistics.quantiles ~n:4]
   (the default "exclusive" method), so the spreads the benchmark
   reports are the ones a reader recomputes from its printed values.
   [percentile] is the simulator's own nearest-rank rule
   ([Rdb_fabric.Metrics]), so bench-side latency percentiles match the
   report's exactly. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles(data, n=4): cut points at (n+1)·i/4, clamped to
   the sample, linearly interpolated. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

let percentile (sorted : float array) p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
