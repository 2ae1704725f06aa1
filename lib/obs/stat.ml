(* Trial statistics (median / MAD / sign-test CI) and the aggregate
   helpers experiment reports use.  See stat.mli for the contract;
   everything is a deterministic function of its inputs. *)

type summary = {
  n : int;
  min_v : float;
  max_v : float;
  median : float;
  mad : float;
  ci_lo : float;
  ci_hi : float;
}

let sorted xs =
  let c = Array.copy xs in
  Array.sort compare c;
  c

let median_sorted c =
  let n = Array.length c in
  if n = 0 then invalid_arg "Stat.median: empty trial vector";
  if n land 1 = 1 then c.(n / 2) else 0.5 *. (c.((n / 2) - 1) +. c.(n / 2))

let median xs = median_sorted (sorted xs)

let mad ?center xs =
  let m = match center with Some c -> c | None -> median xs in
  median (Array.map (fun x -> abs_float (x -. m)) xs)

(* P(Binomial(n, 1/2) ≤ j), computed exactly in floats: n is a trial
   count (tens at most), so C(n, i) / 2^n stays well inside double
   range and the sum is deterministic. *)
let binom_cdf_half ~n j =
  let p = ref 0.0 in
  let c = ref 1.0 in
  (* C(n, 0) *)
  for i = 0 to j do
    if i > 0 then c := !c *. float_of_int (n - i + 1) /. float_of_int i;
    p := !p +. !c
  done;
  !p *. (0.5 ** float_of_int n)

let ci_ranks ~n =
  if n <= 0 then invalid_arg "Stat.ci_ranks: n must be positive";
  (* largest k with P(X ≤ k-1) ≤ 0.025, floored at 1 (n < 6 cannot
     reach 95% coverage with any interior rank — the full range is all
     the data supports); the scan is O(n²) in cheap float ops and n is
     a trial count *)
  let best = ref 1 in
  let k = ref 1 in
  let continue = ref true in
  while !continue && !k <= n / 2 do
    if binom_cdf_half ~n (!k - 1) <= 0.025 then begin
      best := !k;
      incr k
    end
    else continue := false
  done;
  (!best, n + 1 - !best)

let summarize xs =
  let c = sorted xs in
  let n = Array.length c in
  if n = 0 then invalid_arg "Stat.summarize: empty trial vector";
  let med = median_sorted c in
  let lo_rank, hi_rank = ci_ranks ~n in
  {
    n;
    min_v = c.(0);
    max_v = c.(n - 1);
    median = med;
    mad = mad ~center:med xs;
    ci_lo = c.(lo_rank - 1);
    ci_hi = c.(hi_rank - 1);
  }

(* ---- Experiment aggregates ---- *)

(** Welford-style streaming accumulator for mean and variance. *)
type acc = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

(** [create ()] is an empty accumulator. *)
let create () = { n = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

(** [add acc x] folds one observation into [acc]. *)
let add acc x =
  acc.n <- acc.n + 1;
  let delta = x -. acc.mean in
  acc.mean <- acc.mean +. (delta /. float_of_int acc.n);
  acc.m2 <- acc.m2 +. (delta *. (x -. acc.mean));
  if x < acc.min_v then acc.min_v <- x;
  if x > acc.max_v then acc.max_v <- x

(** [count acc] is the number of observations folded so far. *)
let count acc = acc.n

(** [mean acc] is the sample mean; 0 when empty. *)
let mean acc = if acc.n = 0 then 0.0 else acc.mean

(** [variance acc] is the unbiased sample variance; 0 for n < 2. *)
let variance acc = if acc.n < 2 then 0.0 else acc.m2 /. float_of_int (acc.n - 1)

(** [stddev acc] is the sample standard deviation. *)
let stddev acc = sqrt (variance acc)

(** [min_value acc] / [max_value acc]; 0 when empty. *)
let min_value acc = if acc.n = 0 then 0.0 else acc.min_v

let max_value acc = if acc.n = 0 then 0.0 else acc.max_v

(** [mean_of xs] is the arithmetic mean of a list; 0 for []. *)
let mean_of xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** [geomean xs] is the geometric mean; the SPEC95fp rating is a
    geometric mean of per-benchmark ratios.  Raises [Invalid_argument]
    on non-positive inputs. *)
let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let sum_logs =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stat.geomean: non-positive input";
          acc +. log x)
        0.0 xs
    in
    exp (sum_logs /. float_of_int (List.length xs))

(** [percent part whole] is [100 * part / whole], 0 when [whole] = 0. *)
let percent part whole = if whole = 0.0 then 0.0 else 100.0 *. part /. whole

(** [ratio a b] is [a /. b] with 0 for a zero denominator; used for
    speedup computations where a degenerate run yields 0. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
