open Helpers
module I = Mineq.Iso_min
module M = Mineq.Mi_digraph

let baseline = Mineq.Baseline.network

let test_identity_mapping () =
  let g = baseline 3 in
  match I.find g g with
  | None -> Alcotest.fail "self isomorphism exists"
  | Some m -> check_true "verifies" (I.verify g g m)

let test_classical_to_baseline () =
  List.iter
    (fun (name, g) ->
      match I.to_baseline g with
      | None -> Alcotest.fail (name ^ ": Theorem 3 guarantees an isomorphism")
      | Some m ->
          check_true (name ^ " certificate verifies") (I.verify g (baseline 5) m);
          check_true (name ^ " apply reproduces baseline")
            (M.equal (I.apply g m) (baseline 5)))
    (all_classical ~n:5)

let test_non_isomorphic_rejected () =
  let rng = rng_of 70 in
  match Mineq.Counterexample.find_non_equivalent rng ~n:3 ~attempts:5000 ~require_buddy:false with
  | None -> Alcotest.fail "search must find a non-equivalent banyan"
  | Some g -> check_true "no mapping found" (Option.is_none (I.to_baseline g))

let test_size_mismatch () =
  check_true "different n" (Option.is_none (I.find (baseline 3) (baseline 4)))

let test_verify_rejects_garbage () =
  let g = baseline 3 in
  let bad = Array.init 3 (fun _ -> Array.make 4 0) in
  check_false "constant map rejected" (I.verify g g bad);
  let id = Array.init 3 (fun _ -> Array.init 4 (fun x -> x)) in
  check_true "identity verifies on baseline" (I.verify g g id);
  (* Swap two labels at one stage only: adjacency must break. *)
  let tweaked = Array.map Array.copy id in
  tweaked.(1).(0) <- 1;
  tweaked.(1).(1) <- 0;
  check_false "stage-local swap rejected" (I.verify g g tweaked)

let test_mapping_respects_stage_structure () =
  let g = Mineq.Classical.network Omega ~n:4 in
  match I.to_baseline g with
  | None -> Alcotest.fail "omega maps to baseline"
  | Some m ->
      check_int "one map per stage" 4 (Array.length m);
      Array.iter
        (fun stage_map ->
          check_int "stage map size" 8 (Array.length stage_map);
          Alcotest.(check (list int)) "bijection"
            (List.init 8 (fun i -> i))
            (List.sort compare (Array.to_list stage_map)))
        m

let test_automorphism_counts () =
  (* Exhaustive enumeration gives |Aut(Baseline(n))| = 2^(2^n - 2):
     n=2 -> 4, n=3 -> 64, n=4 -> 16384 (equivalently the recurrence
     a(n) = 4 a(n-1)^2 with a(1) = 1).  Recorded as a regression
     oracle; see EXPERIMENTS.md X10 for the discussion. *)
  let expected n = 1 lsl ((1 lsl n) - 2) in
  check_int "n=2 automorphisms" (expected 2) (I.automorphism_count (baseline 2));
  check_int "n=3 automorphisms" (expected 3) (I.automorphism_count (baseline 3));
  check_int "n=4 automorphisms" (expected 4) (I.automorphism_count (baseline 4))

let test_limit () =
  let g = baseline 4 in
  let h = Mineq.Classical.network Omega ~n:4 in
  match I.find ~limit:3 h g with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected node-limit failure"

let test_agreement_with_generic_iso () =
  (* The specialized search and the generic digraph search agree. *)
  let rng = rng_of 71 in
  for _ = 1 to 5 do
    let g = random_banyan_pipid rng ~n:3 in
    let h = random_banyan_pipid rng ~n:3 in
    let specialized = Option.is_some (I.find g h) in
    let generic =
      Mineq_graph.Iso.are_isomorphic (M.to_digraph g) (M.to_digraph h)
    in
    check_bool "same verdict" generic specialized
  done

(* Differential check against the full-scan oracle
   ([Iso_min_oracle]).  Pairs at n = 3..7: a random or PIPID network
   against a relabelled copy of itself (same fingerprint, isomorphic)
   or against an independent draw of the same generator (mostly a
   different fingerprint; PIPID draws often share the Baseline's). *)
let pair_case ~lo ~hi =
  QCheck.make
    ~print:(fun (n, kind, seed) -> Printf.sprintf "n=%d kind=%d seed=%d" n kind seed)
    QCheck.Gen.(triple (int_range lo hi) (int_bound 3) (int_bound 1_000_000))

let pair_of (n, kind, seed) =
  let rng = rng_of seed in
  let draw () =
    if kind land 1 = 0 then Mineq.Link_spec.random_network rng ~n
    else Mineq.Link_spec.random_pipid_network rng ~n
  in
  let g = draw () in
  let h = if kind < 2 then Mineq.Counterexample.relabelled_equivalent rng g else draw () in
  (g, h)

(* Node limits compared, ending in a bound on the oracle: a
   non-isomorphic random pair at n = 7 can run unbounded. *)
let diff_limits = [ 1; 10; 50; 500; 5000; 20_000 ]

let outcome f = match f () with r -> Ok r | exception Failure _ -> Error ()

let diff_props =
  [ qcheck "find agrees with the full-scan oracle at every node limit" ~count:200
      (pair_case ~lo:3 ~hi:7)
      (fun case ->
        let g, h = pair_of case in
        List.for_all
          (fun limit ->
            let got = outcome (fun () -> I.find ~limit g h) in
            got = outcome (fun () -> Iso_min_oracle.find ~limit g h)
            && match got with Ok (Some m) -> I.verify g h m | Ok None | Error _ -> true)
          diff_limits);
    qcheck "automorphism counts agree with the oracle at n <= 4" ~count:60
      (pair_case ~lo:2 ~hi:4)
      (fun case ->
        (* Bounded: random networks with double links can have
           millions of automorphisms at n = 4. *)
        let g, h = pair_of case in
        List.for_all
          (fun net ->
            outcome (fun () -> I.automorphism_count ~limit:100_000 net)
            = outcome (fun () -> Iso_min_oracle.automorphism_count ~limit:100_000 net))
          [ g; h ])
  ]

let props =
  [ qcheck "Theorem 3 constructively: PIPID Banyans map onto the baseline" ~count:30
      n_and_seed (fun (n, seed) ->
        let g = random_banyan_pipid (rng_of seed) ~n in
        match I.to_baseline g with
        | None -> false
        | Some m -> I.verify g (baseline n) m);
    qcheck "apply through a found mapping gives the target" ~count:20 n_and_seed
      (fun (n, seed) ->
        let rng = rng_of seed in
        let g = random_banyan_pipid rng ~n in
        let h = Mineq.Counterexample.relabelled_equivalent rng g in
        match I.find g h with
        | None -> false
        | Some m -> M.equal (I.apply g m) h);
    qcheck "mapping existence is symmetric" ~count:20
      (QCheck.make
         ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
         QCheck.Gen.(pair (int_range 2 4) (int_bound 100000)))
      (fun (n, seed) ->
        let rng = rng_of seed in
        let g = random_banyan_pipid rng ~n in
        let h =
          match Mineq.Counterexample.random_banyan rng ~n ~attempts:200 with
          | Some h -> h
          | None -> g
        in
        Option.is_some (I.find g h) = Option.is_some (I.find h g))
  ]

let suite =
  [ quick "identity mapping" test_identity_mapping;
    quick "classical networks map to baseline" test_classical_to_baseline;
    quick "non-isomorphic rejected" test_non_isomorphic_rejected;
    quick "size mismatch" test_size_mismatch;
    quick "verify rejects garbage" test_verify_rejects_garbage;
    quick "stage structure respected" test_mapping_respects_stage_structure;
    quick "baseline automorphism counts" test_automorphism_counts;
    quick "node limit" test_limit;
    quick "agreement with generic isomorphism" test_agreement_with_generic_iso
  ]
  @ props @ diff_props
