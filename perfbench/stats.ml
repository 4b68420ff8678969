(* Percentiles that refuse to extrapolate.

   A percentile is reported only when at least [min_beyond] samples
   rank above it: a p99 needs 1000 samples, a median 20.  Below that
   the tail is a handful of values and one host stall moves it. *)

let min_beyond = 10

(* Nearest-rank position of percentile [p] (0 < p < 1) among [n]
   samples, 0-based. *)
let rank ~n p = max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)

let beyond ~n p = n - 1 - rank ~n p

let supported ~n p = n > 0 && beyond ~n p >= min_beyond

(* Quickselect: after the call, a.(k) holds the k-th smallest of
   a.(0 .. n-1). *)
let select (a : int array) ~n k =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    (* median of three as the pivot keeps sorted input linear *)
    if a.(mid) < a.(!lo) then swap mid !lo;
    if a.(!hi) < a.(!lo) then swap !hi !lo;
    if a.(mid) < a.(!hi) then swap mid !hi;
    let pivot = a.(!hi) in
    let i = ref !lo and j = ref (!hi - 1) in
    let continue = ref true in
    while !continue do
      while a.(!i) < pivot do incr i done;
      while !j > !lo && a.(!j) > pivot do decr j done;
      if !i >= !j then continue := false
      else begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    swap !i !hi;
    if !i = k then lo := !hi
    else if !i < k then lo := !i + 1
    else hi := !i - 1
  done;
  a.(k)

(* Percentile [p] of the first [n] samples of [a] (reordered in
   place), or the reason it is refused. *)
let percentile (a : int array) ~n p =
  if p <= 0.0 || p >= 1.0 then Error (Printf.sprintf "percentile %g is outside (0, 1)" p)
  else if not (supported ~n p) then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d" (p *. 100.0)
         min_beyond n
         (max 0 (beyond ~n p)))
  else Ok (select a ~n (rank ~n p))

let mean (a : int array) ~n =
  if n = 0 then 0.0
  else begin
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := !s + a.(i)
    done;
    float_of_int !s /. float_of_int n
  end

let median_float l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentile [p] of each consecutive slice of [slice] samples of
   a.(0 .. n-1) (a short last slice joins the one before), then the
   median over the slices.  Samples are in time order, so a slice is a
   stretch of the run, and a host stall moves a few slices but not
   their median. *)
let sliced_percentile (a : int array) ~n ~slice p =
  let slices = n / slice in
  if slices = 0 || not (supported ~n:slice p) then
    Error
      (Printf.sprintf "p%g needs slices of %d samples with %d beyond; %d samples leave none"
         (p *. 100.0) slice min_beyond n)
  else
    let per =
      List.init slices (fun k ->
          let lo = k * slice in
          let hi = if k = slices - 1 then n else lo + slice in
          let s = Array.sub a lo (hi - lo) in
          match percentile s ~n:(hi - lo) p with Ok v -> float_of_int v | Error _ -> nan)
    in
    Ok (median_float per, slices)
