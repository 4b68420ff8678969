(* Output checks for the serve workloads, run after the timed phase.

   Every verdict is re-derived here with a different decider from the
   one the daemon used:
   - characterization verdicts (symbolic where the gaps are affine)
     against the enumeration-only characterization, whose yes must
     also fingerprint like the Baseline (Iso_min itself is out of
     reach at n=7: the search exceeds its node limit);
   - independence verdicts against the definitional independence test
     plus the packed Banyan path-count DP;
   - every Banyan bit against that DP;
   - lint reports against the same two deciders, since MINEQ-E001..3
     are exactly the characterization's failures;
   - blocking certificates by routing each blocking-free class
     through the destination-tag router and replaying each refuting
     pair.
   Classical networks must come back equivalent, Banyan and lint-clean,
   as the paper's corollary says. *)

module Proto = Mineq_serve.Proto
module Service = Mineq_serve.Service
module Certify = Mineq_route_verify.Certify
module Bit_follow = Mineq_route.Bit_follow
open Mineq

type truth = {
  banyan : bool;
  equivalent : bool;
  fingerprint_agrees : bool;  (** an equivalent network fingerprints like the Baseline *)
  independent : bool;
  classical : bool;
}

type t = {
  named : Service.t;
  truths : (string, truth) Hashtbl.t;
  verified : (string, string list) Hashtbl.t;  (** request ^ reply -> reasons *)
  blocking_ok : (string, bool) Hashtbl.t;
  baselines : (int, Fingerprint.t) Hashtbl.t;
}

let create () =
  { named = Service.create (); truths = Hashtbl.create 256; verified = Hashtbl.create 256;
    blocking_ok = Hashtbl.create 256; baselines = Hashtbl.create 8
  }

let baseline_fp t n =
  match Hashtbl.find_opt t.baselines n with
  | Some f -> f
  | None ->
      let f = Fingerprint.of_network (Classical.network Classical.Baseline_net ~n) in
      Hashtbl.add t.baselines n f;
      f

let derive t g ~classical =
  let n = Mi_digraph.stages g in
  let banyan = Result.is_ok (Banyan.check g) in
  let equivalent = Equivalence.equivalent_enum g in
  let fingerprint_agrees =
    (not equivalent) || Fingerprint.equal (Fingerprint.of_network g) (baseline_fp t n)
  in
  let independent =
    List.for_all Connection.is_independent_definitional (Mi_digraph.connections g)
  in
  { banyan; equivalent; fingerprint_agrees; independent; classical }

let resolve t (r : Proto.request) =
  match (r.network, r.spec) with
  | Some spec, None -> Service.network_of_spec t.named ~spec ~n:r.n
  | None, Some text -> Result.map_error Spec_io.error_to_string (Spec_io.of_string text)
  | _ -> Error "request names no network"

(* The network and what the second deciders say about it; named
   networks are derived once, inline specs on every sight (each is
   sent once). *)
let network t (r : Proto.request) =
  let key =
    match (r.network, r.spec) with
    | Some s, _ -> Printf.sprintf "%s@%d" s r.n
    | None, Some text -> Digest.to_hex (Digest.string text)
    | None, None -> ""
  in
  match resolve t r with
  | Error m -> Error m
  | Ok g -> (
      match Hashtbl.find_opt t.truths key with
      | Some v -> Ok (key, g, v)
      | None ->
          let classical =
            match r.network with Some s -> Option.is_some (Classical.of_name s) | None -> false
          in
          let v = derive t g ~classical in
          if Option.is_some r.network then Hashtbl.add t.truths key v;
          Ok (key, g, v))

let bool_field name j = match Proto.member name j with Proto.Bool b -> Some b | _ -> None

let int_field name j = Proto.to_int (Proto.member name j)

let expect what ok = if ok then [] else [ what ]

let verify_verdict truth ~method_ resp =
  match (bool_field "equivalent" resp, bool_field "banyan" resp) with
  | Some eq, Some ban ->
      let expected =
        match method_ with
        | "independence" -> truth.banyan && truth.independent
        | _ -> truth.equivalent
      in
      expect "equivalent disagrees with a second decider" (eq = expected)
      @ expect "banyan disagrees with the path-count DP" (ban = truth.banyan)
      @ expect "an independence yes names a network that is not equivalent"
          ((not eq) || truth.equivalent)
      @ expect "a classical network is not reported equivalent and Banyan"
          ((not truth.classical) || (eq && ban))
  | _ -> [ "equiv response lacks equivalent/banyan" ]

let verify_lint truth resp =
  let report = Proto.member "report" resp in
  let summary = Proto.member "summary" report in
  match (int_field "errors" resp, int_field "warnings" resp, int_field "infos" resp) with
  | Some e, Some w, Some i ->
      expect "lint counts disagree with the report summary"
        (int_field "errors" summary = Some e
        && int_field "warnings" summary = Some w
        && int_field "infos" summary = Some i)
      @ expect "lint exit_code is inconsistent"
          (int_field "exit_code" resp = Some (if e = 0 && w = 0 then 0 else 1))
      @ expect "lint report equivalent disagrees with the enumeration"
          (bool_field "equivalent" report = Some truth.equivalent)
      @ expect "lint report banyan disagrees with the path-count DP"
          (bool_field "banyan" report = Some truth.banyan)
      @ expect "lint errors disagree with the enumeration" (Bool.equal (e = 0) truth.equivalent)
      @ expect "a classical network is not lint-clean"
          ((not truth.classical) || (e = 0 && w = 0))
  | _ -> [ "lint response lacks its counts" ]

(* Route the whole traffic class at once: every input must reach its
   image without contention. *)
let routes_class router (tr : Certify.traffic) =
  let plan = Mineq_route.Plan.create (Bit_follow.fabric router) in
  let ok = ref true in
  for x = 0 to (1 lsl tr.bits) - 1 do
    let o = Mineq_bitvec.Bv.xor (Mineq_bitvec.Gf2_matrix.apply tr.map x) tr.offset in
    if !ok && not (Bit_follow.try_route router plan ~input:x ~output:o) then ok := false
  done;
  !ok

let verify_class router (tr : Certify.traffic) verdict =
  let starts p = String.length verdict >= String.length p && String.sub verdict 0 (String.length p) = p in
  if starts "blocking-free" then routes_class router tr
  else if starts "blocked" then
    try
      Scanf.sscanf verdict "blocked at gap %d: inputs %d and %d contend (outputs %d and %d)"
        (fun gap input_a input_b output_a output_b ->
          Certify.confirm router { Certify.gap; input_a; input_b; output_a; output_b })
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> false
  else
    (* outside the affine regime the certificate makes no claim *)
    starts "unsupported"

let verify_blocking t key g resp =
  let rows =
    match Proto.member "classes" resp with
    | Proto.Arr l ->
        List.filter_map
          (fun c ->
            match (Proto.member "class" c, Proto.member "verdict" c) with
            | Proto.Str a, Proto.Str b -> Some (a, b)
            | _ -> None)
          l
    | _ -> []
  in
  let canonical = String.concat "\n" (List.map (fun (a, b) -> a ^ "=" ^ b) rows) in
  let memo_key = key ^ "\n" ^ canonical in
  match Hashtbl.find_opt t.blocking_ok memo_key with
  | Some true -> []
  | Some false -> [ "blocking certificate failed its concrete replay" ]
  | None ->
      let ok =
        match (Bit_follow.of_network g, bool_field "delta" resp) with
        | None, Some false -> rows = []
        | Some router, Some true ->
            let bits = (Bit_follow.fabric router).Mineq_route.Fabric.width + 1 in
            let classes = Certify.classical_classes ~bits in
            List.length classes = List.length rows
            && List.for_all2
                 (fun (tr : Certify.traffic) (name, verdict) ->
                   String.equal tr.name name && verify_class router tr verdict)
                 classes rows
        | _ -> false
      in
      Hashtbl.add t.blocking_ok memo_key ok;
      if ok then [] else [ "blocking certificate failed its concrete replay" ]

let verify_once t ~payload ~response =
  match Result.bind (Proto.json_of_string payload) Proto.request_of_json with
  | Error m -> [ "unparseable request: " ^ m ]
  | Ok r -> (
      match Proto.json_of_string response with
      | Error _ -> [ "malformed response" ]
      | Ok resp when not (Proto.response_ok resp) ->
          [ "error response " ^ Option.value (Proto.error_code resp) ~default:"without a code" ]
      | Ok resp -> (
          match network t r with
          | Error m -> [ "cannot rebuild the network: " ^ m ]
          | Ok (_, _, truth) when not truth.fingerprint_agrees ->
              [ "an equivalent network fingerprints apart from the Baseline" ]
          | Ok (key, g, truth) -> (
              match r.op with
              | "equiv" ->
                  verify_verdict truth ~method_:(Option.value r.method_ ~default:"") resp
              | "banyan" ->
                  expect "banyan disagrees with the path-count DP"
                    (bool_field "banyan" resp = Some truth.banyan)
              | "lint" -> verify_lint truth resp
              | "blocking" -> verify_blocking t key g resp
              | op -> [ "unexpected op " ^ op ])))

(* Failure reasons for one request/response pair; [] when correct.
   A repeated pair is verified once. *)
let verify t ~payload ~response =
  let key = payload ^ "\000" ^ response in
  match Hashtbl.find_opt t.verified key with
  | Some reasons -> reasons
  | None ->
      let reasons = verify_once t ~payload ~response in
      (* inline specs never repeat; keep the table to the named ones *)
      if String.length payload < 256 then Hashtbl.add t.verified key reasons;
      reasons
