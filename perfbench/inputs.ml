(* Seeded workload inputs.

   Everything the program under test receives is made here from the
   benchmark's --seed: request frames for the serve workloads, the
   argument vector for the CLI workloads.  The same seed gives
   byte-identical inputs; the program never sees the seed itself
   except as the CLI's own --seed argument, itself derived here. *)

module Seeds = Mineq_engine.Seeds
module Proto = Mineq_serve.Proto

(* Purpose labels folded into the benchmark seed, one stream family
   each. *)
let label_hot_tail = 1

let label_hot_mix = 2

let label_cold = 3

let label_census = 4

let label_churn = 5

(* A positive seed below 2^30 for the CLI's --seed and the
   random:/pipid: network names. *)
let small_seed seed label = Seeds.fold seed label land 0x3FFF_FFFF

(* serve-hot ----------------------------------------------------------- *)

(* Six classical families at n = 4..6, then a random/PIPID tail at
   n = 4 whose seeds come from the benchmark seed.  The Zipf ranks
   follow this order, so the classical networks are the hot head on
   every seed and per-request cost does not swing with the seed. *)
let hot_items ~seed =
  let classical =
    List.concat_map
      (fun n -> List.map (fun kind -> (Mineq.Classical.name kind, n)) Mineq.Classical.all_kinds)
      [ 4; 5; 6 ]
  in
  let tail prefix count base =
    List.init count (fun i ->
        (Printf.sprintf "%s:%d" prefix (small_seed (Seeds.fold seed label_hot_tail) (base + i)), 4))
  in
  Array.of_list (classical @ tail "random" 50 0 @ tail "pipid" 32 1000)

let zipf_s = 1.1

let zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) zipf_s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun wi ->
        acc := !acc +. (wi /. total);
        !acc)
      w
  in
  cdf.(n - 1) <- 1.0;
  cdf

let sample_rank cdf rng =
  let u = Random.State.float rng 1.0 in
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
  in
  bisect 0 (Array.length cdf - 1)

(* The 60/15/15/10 equiv/banyan/lint/blocking split. *)
let sample_op rng =
  let u = Random.State.float rng 1.0 in
  if u < 0.60 then "equiv" else if u < 0.75 then "banyan" else if u < 0.90 then "lint"
  else "blocking"

let ops = [ "equiv"; "banyan"; "lint"; "blocking" ]

(* Requests carry no id: each connection has one request in flight and
   the protocol answers in order, so the next frame is its reply.
   Without ids, repeated requests get byte-identical replies, which the
   client stores once. *)
let named_request ~op ~network ~n =
  Proto.json_to_string
    (Proto.Obj [ ("op", Proto.Str op); ("network", Proto.Str network); ("n", Proto.Int n) ])

(* The warm pass: every resident network under every op, once. *)
let hot_warm ~seed =
  let items = hot_items ~seed in
  Array.of_list
    (List.concat_map
       (fun (network, n) -> List.map (fun op -> named_request ~op ~network ~n) ops)
       (Array.to_list items))

let hot_requests ~seed ~count =
  let items = hot_items ~seed in
  let cdf = zipf_cdf (Array.length items) in
  let rng = Seeds.derive ~root:(Seeds.fold seed label_hot_mix) 0 in
  Array.init count (fun _ ->
      let network, n = items.(sample_rank cdf rng) in
      let op = sample_op rng in
      named_request ~op ~network ~n)

(* serve-cold ---------------------------------------------------------- *)

let cold_n = 7

(* Same generators as the streaming census. *)
let generate_cold rng ~n =
  match Random.State.int rng 3 with
  | 0 -> Mineq.Link_spec.random_network rng ~n
  | 1 -> Mineq.Link_spec.random_pipid_network rng ~n
  | _ ->
      Mineq.Mi_digraph.create
        (List.init (n - 1) (fun _ -> Mineq.Connection.random_independent rng ~width:(n - 1)))

(* One share of equiv requests asks for the independence decider;
   isomorphism is never asked for (one n=6 request can run for
   minutes). *)
let independence_share = 1.0 /. 3.0

let cold_request ~seed id =
  let rng = Seeds.derive ~root:(Seeds.fold seed label_cold) id in
  let g = generate_cold rng ~n:cold_n in
  let op = sample_op rng in
  let method_ =
    if String.equal op "equiv" && Random.State.float rng 1.0 < independence_share then
      [ ("method", Proto.Str "independence") ]
    else []
  in
  Proto.json_to_string
    (Proto.Obj ([ ("op", Proto.Str op); ("spec", Proto.Str (Mineq.Spec_io.to_string g)) ] @ method_))

let cold_requests ~seed ~count = Array.init count (cold_request ~seed)

(* CLI workloads ------------------------------------------------------- *)

let census_n = 7

let census_argv ~seed ~specs ~jobs =
  [ "census"; "--stream"; "--generator"; "pipid"; "-n"; string_of_int census_n; "--specs";
    string_of_int specs; "--seed"; string_of_int (small_seed seed label_census); "--jobs";
    string_of_int jobs ]

let churn_n = 10

let churn_trials = 4

let churn_seed seed = small_seed seed label_churn

let churn_argv ~seed ~ops ~trials ~jobs =
  [ "route"; "benes"; "-n"; string_of_int churn_n; "--churn";
    Printf.sprintf "%d:%d" ops (churn_seed seed); "--trials"; string_of_int trials; "--jobs";
    string_of_int jobs ]

(* Workloads ----------------------------------------------------------- *)

type workload = Serve_hot | Serve_cold | Census_pipid | Route_churn

let workload_of_string = function
  | "serve-hot" -> Some Serve_hot
  | "serve-cold" -> Some Serve_cold
  | "census-pipid" -> Some Census_pipid
  | "route-churn" -> Some Route_churn
  | _ -> None

let workload_name = function
  | Serve_hot -> "serve-hot"
  | Serve_cold -> "serve-cold"
  | Census_pipid -> "census-pipid"
  | Route_churn -> "route-churn"

(* Everything the program receives for [size] units of work, as one
   byte string: the request frames for serve, the argv for the CLI. *)
let serialize workload ~seed ~size ~jobs =
  let frames a = String.concat "" (Array.to_list (Array.map Proto.frame a)) in
  match workload with
  | Serve_hot -> frames (hot_warm ~seed) ^ frames (hot_requests ~seed ~count:size)
  | Serve_cold -> frames (cold_requests ~seed ~count:size)
  | Census_pipid -> String.concat "\000" (census_argv ~seed ~specs:size ~jobs)
  | Route_churn -> String.concat "\000" (churn_argv ~seed ~ops:size ~trials:churn_trials ~jobs)
