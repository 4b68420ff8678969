(* pb: the compiled half of the benchmark (run.py drives it).

   pb argv   --workload W --seed S --size N --jobs J
     print the CLI workload's argument vector, one per line
   pb serve  --workload W --seed S --size N --conns C --boots K
             --cli EXE --socket PATH --trace 0|1 --out FILE [--spans FILE]
     boot the daemon K times, run the closed loop, check every reply;
     with --trace 1 also replay the requests in-process, untraced and
     traced
   pb replay --workload W --seed S --size N --jobs J --trace 0|1
             --out FILE --text FILE [--spans FILE]
     replay a CLI workload in-process and write the CLI's summary text

   Results go to --out as one JSON object of named numbers. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("pb: " ^ m); exit 2) fmt

let args = Hashtbl.create 16

let arg name =
  match Hashtbl.find_opt args name with Some v -> v | None -> fail "missing --%s" name

let int_arg name =
  match int_of_string_opt (arg name) with Some v -> v | None -> fail "--%s needs an integer" name

let workload () =
  match Inputs.workload_of_string (arg "workload") with
  | Some w -> w
  | None -> fail "unknown workload %S" (arg "workload")

(* Results ---------------------------------------------------------------- *)

let results : (string * float) list ref = ref []

let put name v = results := (name, v) :: !results

let notes : string list ref = ref []

let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt

let write_results path ~attempted ~failed =
  let oc = open_out path in
  Printf.fprintf oc "{\"attempted\": %d, \"failed\": %d, \"notes\": [%s],\n \"values\": {" attempted
    failed
    (String.concat ", " (List.rev_map (fun m -> Printf.sprintf "%S" m) !notes));
  List.iteri
    (fun k (name, v) ->
      Printf.fprintf oc "%s\n  %S: %s" (if k = 0 then "" else ",") name
        (if Float.is_finite v then Printf.sprintf "%.17g" v else "null"))
    (List.rev !results);
  Printf.fprintf oc "\n}}\n";
  close_out oc

let us_of_ns v = float_of_int v /. 1e3

(* Percentiles, refused (with a note) below ten samples beyond. *)
let put_percentile name samples ~n p =
  match Stats.percentile samples ~n p with
  | Ok v -> put name (us_of_ns v)
  | Error m -> note "%s refused: %s" name m

let put_zero names = List.iter (fun m -> put m 0.0) names

let serve_only_layers =
  [ "proto.decode_us"; "memo.probe_us"; "server.overhead_us"; "proto.encode_us"; "proto.resp_bytes";
    "service.resolve_us"; "equivalence.independence_us"; "lint_us"; "certify.blocking_us";
    "memo.hit_rate.equiv"; "memo.hit_rate.lint"; "memo.hit_rate.blocking"; "memo.dup_computes";
    "server.batch_mean"; "server.shed"; "server.deadline_expired"; "server.errors" ]

let census_layers =
  [ "stream_census.generate_us"; "iso_min_us"; "iso_min.calls"; "iso_min.confirmed_frac";
    "iso_min.share"; "stream_census.merge_share"; "stream_census.classes";
    "stream_census.buckets"; "stream_census.collisions" ]

let churn_layers =
  [ "rearrange.connect_us"; "rearrange.connect_p99_us"; "rearrange.disconnect_us";
    "rearrange.moved_per_connect"; "rearrange.rearranged_frac" ]

let coverage_floor = 0.9

let put_trace ~coverage ~traced_ns ~plain_ns =
  put "trace.coverage" coverage;
  put "trace.overhead" ((float_of_int traced_ns /. float_of_int plain_ns) -. 1.0);
  if coverage < coverage_floor then
    note "trace.coverage %.3f is below %.2f: layer spans miss part of the replay" coverage
      coverage_floor

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let maybe_write_spans () =
  match Hashtbl.find_opt args "spans" with Some p -> Trace.write p | None -> ()

(* Every timing is taken over short stretches of the run and reported
   as the median over them.  A stretch is a slice of consecutive
   answers within one boot: [slice] answers for throughput and p50,
   [slice_p99] for p99, which then has ten samples beyond it. *)
let slice = 200

let slice_p99 = 1000

let put_sliced_percentile name samples ~n ~slice p =
  match Stats.sliced_percentile samples ~n ~slice p with
  | Ok (v, slices) ->
      put name (v /. 1e3);
      put (name ^ "_slices") (float_of_int slices)
  | Error m -> note "%s refused: %s" name m

let put_percentiles samples ~n =
  put_sliced_percentile "p50_us" samples ~n ~slice 0.5;
  put_sliced_percentile "p99_us" samples ~n ~slice:slice_p99 0.99

(* Slices of [size] answers of one boot's loop, as (first, past-last). *)
let slices_of (loop : Client.loop) ~size =
  let n = loop.answered in
  let k = n / size in
  List.init k (fun j -> (j * size, if j = k - 1 then n else (j + 1) * size))

let slice_qps (loop : Client.loop) (lo, hi) =
  let t_lo = if lo = 0 then 0 else loop.done_ns.(lo - 1) in
  float_of_int (hi - lo) /. (float_of_int (loop.done_ns.(hi - 1) - t_lo) /. 1e9)

let slice_pct p (loop : Client.loop) (lo, hi) =
  match Stats.percentile (Array.sub loop.latency_ns lo (hi - lo)) ~n:(hi - lo) p with
  | Ok v -> float_of_int v /. 1e3
  | Error _ -> nan

(* serve ----------------------------------------------------------------- *)

let serve () =
  let w = workload () in
  let seed = int_arg "seed" and size = int_arg "size" and boots = int_arg "boots" in
  let traced = int_arg "trace" = 1 in
  let warm, timed =
    match w with
    | Inputs.Serve_hot -> (Inputs.hot_warm ~seed, Inputs.hot_requests ~seed ~count:size)
    | Inputs.Serve_cold -> ([||], Inputs.cold_requests ~seed ~count:size)
    | _ -> fail "pb serve runs serve-hot or serve-cold"
  in
  let runs =
    Client.run ~cli:(arg "cli") ~socket:(arg "socket") ~conns:(int_arg "conns") ~boots ~warm
      ~timed
  in
  (* Checks, outside the timed phase. *)
  let checker = Check.create () in
  let failures = Hashtbl.create 8 in
  let failed = ref 0 in
  let resp_bytes = ref 0 in
  List.iter2
    (fun (r : Client.boot) share ->
      if not r.clean_exit then note "a daemon boot did not exit cleanly";
      Array.iteri
        (fun i payload ->
          let reasons =
            match r.loop.responses.(i) with
            | None -> [ "missing reply" ]
            | Some response ->
                resp_bytes := !resp_bytes + String.length response;
                Check.verify checker ~payload ~response
          in
          if reasons <> [] then begin
            incr failed;
            List.iter
              (fun m ->
                Hashtbl.replace failures m
                  (1 + Option.value (Hashtbl.find_opt failures m) ~default:0))
              reasons
          end)
        share)
    runs (Client.shares ~boots timed);
  Hashtbl.iter (fun m c -> note "%d x %s" c m) failures;
  let latency = Array.concat (List.map (fun (r : Client.boot) -> Array.sub r.loop.latency_ns 0 r.loop.answered) runs) in
  let n = Array.length latency in
  let mean_us = Stats.mean latency ~n /. 1e3 in
  let wall_ns = List.fold_left (fun acc (r : Client.boot) -> acc + r.loop.wall_ns) 0 runs in
  if not traced then begin
    let over size f =
      List.concat_map (fun (r : Client.boot) -> List.map (f r.loop) (slices_of r.loop ~size)) runs
    in
    let put_median name values =
      if values = [] then note "%s refused: a boot answered too few requests to slice" name
      else put name (Stats.median_float values)
    in
    put_median "qps" (over slice slice_qps);
    put_median "p50_us" (over slice (slice_pct 0.5));
    put_median "p99_us" (over slice_p99 (slice_pct 0.99));
    put "slices" (float_of_int (List.length (over slice slice_qps)));
    put "p99_slices" (float_of_int (List.length (over slice_p99 slice_qps)));
    put "setup_s" (Stats.median_float (List.map (fun (r : Client.boot) -> r.setup_s) runs));
    put "peak_rss_mb" (List.fold_left (fun acc (r : Client.boot) -> Float.max acc r.rss_mb) 0.0 runs);
    put "qps_all" (float_of_int n /. (float_of_int wall_ns /. 1e9));
    put_percentile "p50_us_all" (Array.copy latency) ~n 0.5;
    put_percentile "p99_us_all" (Array.copy latency) ~n 0.99;
    put "latency_samples" (float_of_int n);
    put "mean_us" mean_us
  end
  else begin
    (* Counter deltas over the timed phases, summed over boots. *)
    let delta f = List.fold_left (fun acc (r : Client.boot) -> acc + f r.after - f r.before) 0 runs in
    let cache name pick (c : Client.counters) = pick (List.assoc name c.cache) in
    let hit_rate name =
      let h = delta (cache name (fun (h, _, _) -> h)) and m = delta (cache name (fun (_, m, _) -> m)) in
      ratio h (h + m)
    in
    let dup =
      List.fold_left
        (fun acc (r : Client.boot) ->
          List.fold_left (fun acc (_, (_, m, s)) -> acc + (m - s)) acc r.after.cache)
        0 runs
    in
    let shares = Client.shares ~boots timed in
    let rep = Replay.run_serve ~warm ~shares in
    let per_req_us = float_of_int rep.s_plain_ns /. float_of_int rep.s_requests /. 1e3 in
    let self = Trace.self_us_per_call in
    put "proto.decode_us" (self Replay.l_decode);
    put "memo.probe_us" (self Replay.l_probe);
    put "server.overhead_us" (mean_us -. per_req_us);
    put "proto.encode_us" (self Replay.l_encode);
    put "proto.resp_bytes" (ratio !resp_bytes (Array.length timed));
    put "service.resolve_us" (self Replay.l_resolve);
    put "equivalence.characterization_us" (self Replay.l_characterization);
    put "equivalence.independence_us" (self Replay.l_independence);
    put "lint_us" (self Replay.l_lint);
    put "certify.blocking_us" (self Replay.l_blocking);
    put "fingerprint_us" (self Replay.l_fingerprint);
    put "memo.hit_rate.equiv" (hit_rate "equiv");
    put "memo.hit_rate.lint" (hit_rate "lint");
    put "memo.hit_rate.blocking" (hit_rate "blocking");
    put "memo.dup_computes" (float_of_int dup);
    put "server.batch_mean"
      (ratio (delta (fun c -> c.Client.requests)) (delta (fun c -> c.Client.batches)));
    put "server.shed" (float_of_int (delta (fun c -> c.Client.shed)));
    put "server.deadline_expired" (float_of_int (delta (fun c -> c.Client.deadline_expired)));
    put "server.errors" (float_of_int (delta (fun c -> c.Client.errors)));
    put_zero census_layers;
    put_zero churn_layers;
    put "pool.busy_frac" 0.0;
    put_trace ~coverage:rep.s_coverage ~traced_ns:rep.s_traced_ns ~plain_ns:rep.s_plain_ns;
    put "error_rate" (ratio !failed (Array.length timed));
    maybe_write_spans ()
  end;
  write_results (arg "out") ~attempted:(Array.length timed) ~failed:!failed

(* CLI workloads ----------------------------------------------------------- *)

let effective_jobs j = max 1 (min j (Mineq_engine.Pool.default_jobs ()))

let write_text path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let replay () =
  let w = workload () in
  let seed = int_arg "seed" and size = int_arg "size" and jobs = int_arg "jobs" in
  let traced = int_arg "trace" = 1 in
  let jobs_eff = effective_jobs jobs in
  (match w with
  | Inputs.Census_pipid ->
      let root = Inputs.small_seed seed Inputs.label_census in
      let run trace = Replay.run_census ~trace ~jobs ~root ~n:Inputs.census_n ~specs:size in
      let plain = run false in
      write_text (arg "text") plain.c_text;
      let lat = plain.c_latency in
      put_percentiles lat ~n:size;
      put "latency_samples" (float_of_int size);
      if traced then begin
        let t = run true in
        if not (String.equal t.c_text plain.c_text) then note "the traced replay's summary differs";
        let self = Trace.self_us_per_call in
        put "stream_census.generate_us" (self Replay.l_generate);
        put "fingerprint_us" (self Replay.l_fingerprint);
        put "iso_min_us" (self Replay.l_iso_min);
        put "iso_min.calls" (float_of_int t.c_iso_calls);
        put "iso_min.confirmed_frac" (ratio t.c_iso_confirmed t.c_iso_calls);
        put "iso_min.share" (ratio (Trace.self_ns Replay.l_iso_min) t.c_wall_ns);
        put "stream_census.merge_share" (ratio t.c_merge_ns t.c_wall_ns);
        put "stream_census.classes" (float_of_int t.c_classes);
        put "stream_census.buckets" (float_of_int t.c_buckets);
        put "stream_census.collisions" (float_of_int t.c_collisions);
        put "equivalence.characterization_us" (self Replay.l_characterization);
        put "pool.busy_frac"
          (float_of_int (Trace.span_ns Replay.l_pool_task)
          /. float_of_int (jobs_eff * t.c_map_ns));
        put_zero serve_only_layers;
        put_zero churn_layers;
        maybe_write_spans ();
        (* a second untraced replay, after the traced one, balances host
           drift out of the overhead *)
        let again = run false in
        put_trace ~coverage:t.c_coverage ~traced_ns:t.c_wall_ns
          ~plain_ns:((plain.c_wall_ns + again.c_wall_ns) / 2)
      end
  | Inputs.Route_churn ->
      let root = Inputs.churn_seed seed in
      let run trace =
        Replay.run_churn ~trace ~jobs ~root ~n:Inputs.churn_n ~ops:size ~trials:Inputs.churn_trials
      in
      let plain = run false in
      write_text (arg "text") plain.r_text;
      let ops = Array.length plain.r_op_ns in
      put_percentiles plain.r_op_ns ~n:ops;
      put "latency_samples" (float_of_int ops);
      if traced then begin
        let t = run true in
        if not (String.equal t.r_text plain.r_text) then note "the traced replay's summary differs";
        let self = Trace.self_us_per_call in
        put "rearrange.connect_us" (self Replay.l_connect);
        put_percentile "rearrange.connect_p99_us" plain.r_connect_ns
          ~n:(Array.length plain.r_connect_ns) 0.99;
        put "rearrange.disconnect_us" (self Replay.l_disconnect);
        put "rearrange.moved_per_connect" (Mineq_route.Survey.moved_per_connect t.r_row);
        put "rearrange.rearranged_frac" (Mineq_route.Survey.rearranged_fraction t.r_row);
        put "pool.busy_frac"
          (float_of_int (Trace.span_ns Replay.l_pool_task)
          /. float_of_int (jobs_eff * t.r_map_ns));
        put "fingerprint_us" 0.0;
        put "equivalence.characterization_us" 0.0;
        put_zero serve_only_layers;
        put_zero census_layers;
        maybe_write_spans ();
        let again = run false in
        put_trace ~coverage:t.r_coverage ~traced_ns:t.r_wall_ns
          ~plain_ns:((plain.r_wall_ns + again.r_wall_ns) / 2)
      end
  | _ -> fail "pb replay runs census-pipid or route-churn");
  write_results (arg "out") ~attempted:1 ~failed:0

let argv () =
  let seed = int_arg "seed" and size = int_arg "size" and jobs = int_arg "jobs" in
  let l =
    match workload () with
    | Inputs.Census_pipid -> Inputs.census_argv ~seed ~specs:size ~jobs
    | Inputs.Route_churn -> Inputs.churn_argv ~seed ~ops:size ~trials:Inputs.churn_trials ~jobs
    | _ -> fail "pb argv is for census-pipid or route-churn"
  in
  List.iter print_endline l

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let argv_ = Sys.argv in
  if Array.length argv_ < 2 then fail "usage: pb argv|serve|replay --key value ...";
  let rec parse i =
    if i < Array.length argv_ then
      if i + 1 < Array.length argv_ && String.length argv_.(i) > 2 && String.sub argv_.(i) 0 2 = "--"
      then begin
        Hashtbl.replace args (String.sub argv_.(i) 2 (String.length argv_.(i) - 2)) argv_.(i + 1);
        parse (i + 2)
      end
      else fail "unexpected argument %S" argv_.(i)
  in
  parse 2;
  match argv_.(1) with
  | "argv" -> argv ()
  | "serve" -> serve ()
  | "replay" -> replay ()
  | c -> fail "unknown command %S" c
