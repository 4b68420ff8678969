(* Tests for the benchmark's own code: seeded inputs are reproducible
   and seed-dependent, and the percentile helper refuses a percentile
   with fewer than ten samples beyond it. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let workloads = Inputs.[ Serve_hot; Serve_cold; Census_pipid; Route_churn ]

let () =
  List.iter
    (fun w ->
      let name = Inputs.workload_name w in
      let a = Inputs.serialize w ~seed:7 ~size:40 ~jobs:2 in
      let b = Inputs.serialize w ~seed:7 ~size:40 ~jobs:2 in
      let c = Inputs.serialize w ~seed:8 ~size:40 ~jobs:2 in
      check (name ^ ": same seed, byte-identical inputs") (String.equal a b);
      check (name ^ ": another seed, other inputs") (not (String.equal a c)))
    workloads

let () =
  (* p99 needs 1000 samples, p50 needs 20 *)
  let a n = Array.init n (fun i -> n - i) in
  check "p99 of 999 samples is refused" (Result.is_error (Stats.percentile (a 999) ~n:999 0.99));
  check "p99 of 1000 samples is allowed" (Result.is_ok (Stats.percentile (a 1000) ~n:1000 0.99));
  check "p50 of 19 samples is refused" (Result.is_error (Stats.percentile (a 19) ~n:19 0.5));
  check "p50 of 20 samples is allowed" (Result.is_ok (Stats.percentile (a 20) ~n:20 0.5));
  check "the refusal counts samples beyond, not the total"
    (Stats.beyond ~n:1000 0.99 = 10 && Stats.beyond ~n:999 0.99 = 9)

let () =
  (* quickselect agrees with sorting, duplicates included *)
  let rng = Random.State.make [| 3 |] in
  for trial = 1 to 200 do
    let n = 20 + Random.State.int rng 2000 in
    let range = if trial mod 2 = 0 then 5 else 1_000_000 in
    let a = Array.init n (fun _ -> Random.State.int rng range) in
    let sorted = Array.copy a in
    Array.sort compare sorted;
    List.iter
      (fun p ->
        if Stats.supported ~n p then
          match Stats.percentile (Array.copy a) ~n p with
          | Ok v -> check (Printf.sprintf "percentile %g of %d samples" p n) (v = sorted.(Stats.rank ~n p))
          | Error _ -> check "a supported percentile is refused" false)
      [ 0.5; 0.9; 0.99 ]
  done

let () =
  if !failures > 0 then exit 1;
  print_endline "perfbench: all checks passed"
