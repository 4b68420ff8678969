(* In-process replays of each workload through the layers' public
   functions, with a span around every layer call.

   The serve replay repeats what [Service.handle] does for the ops the
   workloads send, call for call: decode, resolve, fingerprint, memo
   probe, decider, encode.  The census and churn replays repeat
   [Stream_census.run_in] and [Survey.churn_in] on a pool of the same
   width as the CLI and print the CLI's summary text, so the two can
   be compared byte for byte. *)

module Memo = Mineq_engine.Memo
module Pool = Mineq_engine.Pool
module Seeds = Mineq_engine.Seeds
module Proto = Mineq_serve.Proto
module Service = Mineq_serve.Service
module Rearrange = Mineq_route.Rearrange

let l_decode = Trace.register "proto.decode"

let l_handle = Trace.register "service.handle"

let l_resolve = Trace.register "service.resolve"

let l_fingerprint = Trace.register "fingerprint"

let l_probe = Trace.register "memo.probe"

let l_characterization = Trace.register "equivalence.characterization"

let l_independence = Trace.register "equivalence.independence"

let l_lint = Trace.register "lint"

let l_blocking = Trace.register "certify.blocking"

let l_encode = Trace.register "proto.encode"

let l_pool_map = Trace.register "pool.map"

let l_pool_task = Trace.register "pool.task"

let l_generate = Trace.register "stream_census.generate"

let l_merge = Trace.register "stream_census.merge"

let l_iso_min = Trace.register "iso_min"

let l_connect = Trace.register "rearrange.connect"

let l_disconnect = Trace.register "rearrange.disconnect"

let l_consistent = Trace.register "rearrange.consistent"

let span = Trace.with_span

(* serve ---------------------------------------------------------------- *)

type serve = {
  equiv : Proto.verdict Memo.t;
  lint : Proto.lint_cached Memo.t;
  blocking : Proto.blocking_cached Memo.t;
  named : Service.t;  (** only its resident table of named networks is used *)
  inline : (string, Mineq.Mi_digraph.t) Hashtbl.t;
}

let create_serve () =
  { equiv = Memo.create ~keying:Memo.Fingerprint ();
    lint = Memo.create ();
    blocking = Memo.create ();
    named = Service.create ();
    inline = Hashtbl.create 64
  }

let resolve st (r : Proto.request) =
  span l_resolve (fun () ->
      match (r.network, r.spec) with
      | Some spec, None -> Service.network_of_spec st.named ~spec ~n:r.n
      | None, Some text -> (
          let key = Digest.string text in
          match Hashtbl.find_opt st.inline key with
          | Some g -> Ok g
          | None -> (
              match Mineq.Spec_io.of_string text with
              | Ok g ->
                  Hashtbl.add st.inline key g;
                  Ok g
              | Error e -> Error (Mineq.Spec_io.error_to_string e)))
      | _ -> Error "request needs exactly one of network and spec")

let verdict_of g : Proto.verdict =
  span l_characterization (fun () ->
      let v = Mineq.Equivalence.by_characterization g in
      { Proto.equivalent = v.Mineq.Equivalence.equivalent; banyan = v.banyan; detail = v.detail })

let lint_of g : Proto.lint_cached =
  span l_lint (fun () ->
      let module A = Mineq_analysis in
      let report = A.Lint.run g in
      let parsed =
        match Proto.json_of_string (A.Report.to_json report) with Ok v -> v | Error _ -> Proto.Null
      in
      { Proto.report = parsed; errors = A.Lint.errors report; warnings = A.Lint.warnings report;
        infos = A.Lint.infos report
      })

let blocking_of g : Proto.blocking_cached =
  span l_blocking (fun () ->
      let module V = Mineq_route_verify in
      match Mineq_route.Bit_follow.of_network g with
      | None -> { Proto.delta = false; rows = [] }
      | Some router ->
          { Proto.delta = true;
            rows =
              List.map
                (fun ((tr : V.Certify.traffic), result) ->
                  (tr.V.Certify.name, Format.asprintf "%a" V.Certify.pp_result result))
                (V.Certify.survey_classes router)
          })

let probe memo g compute = span l_probe (fun () -> Memo.find_or_compute memo g compute)

let cached_verdict st g =
  ignore (span l_fingerprint (fun () -> Mineq.Fingerprint.of_network g));
  probe st.equiv g verdict_of

let evaluate st (r : Proto.request) =
  let id = r.id in
  match resolve st r with
  | Error m -> Proto.error_response ~id ~code:"MINEQ-S003" ~message:m
  | Ok g -> (
      let verdict name (v : Proto.verdict) =
        Proto.ok_response ~id
          [ ("op", Proto.Str "equiv"); ("method", Proto.Str name);
            ("equivalent", Proto.Bool v.equivalent); ("banyan", Proto.Bool v.banyan);
            ("detail", Proto.Str v.detail)
          ]
      in
      match (r.op, r.method_) with
      | "equiv", (None | Some "characterization") -> verdict "characterization" (cached_verdict st g)
      | "equiv", Some "independence" ->
          let v = span l_independence (fun () -> Mineq.Equivalence.by_independence g) in
          verdict "independence"
            { Proto.equivalent = v.Mineq.Equivalence.equivalent; banyan = v.banyan; detail = v.detail }
      | "banyan", _ ->
          let v = cached_verdict st g in
          Proto.ok_response ~id [ ("op", Proto.Str "banyan"); ("banyan", Proto.Bool v.banyan) ]
      | "lint", _ ->
          let l = probe st.lint g lint_of in
          Proto.ok_response ~id
            [ ("op", Proto.Str "lint"); ("errors", Proto.Int l.errors);
              ("warnings", Proto.Int l.warnings); ("infos", Proto.Int l.infos);
              ("exit_code", Proto.Int (if l.errors = 0 && l.warnings = 0 then 0 else 1));
              ("report", l.report)
            ]
      | "blocking", _ ->
          let b = probe st.blocking g blocking_of in
          Proto.ok_response ~id
            [ ("op", Proto.Str "blocking"); ("delta", Proto.Bool b.delta);
              ( "classes",
                Proto.Arr
                  (List.map
                     (fun (name, v) ->
                       Proto.Obj [ ("class", Proto.Str name); ("verdict", Proto.Str v) ])
                     b.rows) )
            ]
      | op, _ ->
          Proto.error_response ~id ~code:"MINEQ-S002"
            ~message:(Printf.sprintf "op %S is not replayed" op))

(* One request frame payload in, one response frame out. *)
let serve_one st ~rid payload =
  Trace.enter_rid l_decode rid;
  let request =
    match Proto.json_of_string payload with
    | Error m -> Error m
    | Ok j -> Proto.request_of_json j
  in
  ignore (Trace.leave l_decode);
  let response =
    match request with
    | Error m -> Proto.error_response ~id:Proto.Null ~code:"MINEQ-S001" ~message:m
    | Ok r ->
        Trace.enter_rid l_handle rid;
        let resp = evaluate st r in
        ignore (Trace.leave l_handle);
        resp
  in
  Trace.enter_rid l_encode rid;
  let frame = Proto.frame (Proto.json_to_string response) in
  ignore (Trace.leave l_encode);
  frame

type serve_result = {
  s_plain_ns : int;  (** untraced replay wall *)
  s_traced_ns : int;  (** traced replay wall *)
  s_requests : int;
  s_coverage : float;
}

(* One share as one daemon boot sees it: a fresh service, the warm pass
   untimed, then the share's requests; returns their wall time. *)
let serve_share ~trace ~warm ~rid0 timed =
  let st = create_serve () in
  Array.iter (fun p -> ignore (serve_one st ~rid:(-1) p)) warm;
  Trace.set_enabled trace;
  let t0 = Trace.now_ns () in
  Array.iteri (fun i p -> ignore (serve_one st ~rid:(rid0 + i) p)) timed;
  let wall = Trace.now_ns () - t0 in
  Trace.set_enabled false;
  wall

(* Every share replayed untraced and traced back to back, alternating
   which goes first, so host drift during the replay cancels out of
   the tracing overhead. *)
let run_serve ~warm ~shares =
  Trace.reset ();
  let plain = ref 0 and traced = ref 0 and rid = ref 0 in
  List.iteri
    (fun k timed ->
      let run trace = serve_share ~trace ~warm ~rid0:!rid timed in
      if k mod 2 = 0 then begin
        plain := !plain + run false;
        traced := !traced + run true
      end
      else begin
        traced := !traced + run true;
        plain := !plain + run false
      end;
      rid := !rid + Array.length timed)
    shares;
  { s_plain_ns = !plain;
    s_traced_ns = !traced;
    s_requests = !rid;
    s_coverage = float_of_int (Trace.caller_self_ns ()) /. float_of_int !traced
  }

(* census --------------------------------------------------------------- *)

type census_result = {
  c_text : string;  (** the CLI's stdout for the same run *)
  c_wall_ns : int;
  c_map_ns : int;  (** wall time inside Pool.map_array *)
  c_merge_ns : int;  (** wall time of the serial merge *)
  c_iso_calls : int;
  c_iso_confirmed : int;
  c_classes : int;
  c_buckets : int;
  c_collisions : int;
  c_latency : int array;
      (** thread CPU ns per spec: its pool task plus its merge step *)
  c_coverage : float;
}

type cls = { rep : Mineq.Mi_digraph.t; first : int; mutable members : int }

(* [Stream_census.run_in] with the pipid generator. *)
let run_census ~trace ~jobs ~root ~n ~specs =
  Trace.reset ();
  Trace.set_enabled trace;
  let lat = Array.make specs 0 in
  let iso_calls = ref 0 and iso_confirmed = ref 0 in
  let map_ns = ref 0 and merge_ns = ref 0 in
  let t0 = Trace.now_ns () in
  let summary =
    Pool.run ~jobs (fun pool ->
        let chunk = max 64 (min 4096 (specs / 32)) in
        let buckets : (Mineq.Fingerprint.t, cls list ref) Hashtbl.t = Hashtbl.create 256 in
        let order = ref [] in
        let nclasses = ref 0 in
        let nchunks = (specs + chunk - 1) / chunk in
        for c = 0 to nchunks - 1 do
          let base = c * chunk in
          let m = min chunk (specs - base) in
          let m0 = Trace.now_ns () in
          let items =
            span l_pool_map (fun () ->
                Pool.map_array pool
                  (fun i ->
                    let a = Trace.thread_cpu_ns () in
                    let idx = base + i in
                    Trace.enter_rid l_pool_task idx;
                    let g =
                      span l_generate (fun () ->
                          Mineq.Link_spec.random_pipid_network (Seeds.derive ~root idx) ~n)
                    in
                    let fp = span l_fingerprint (fun () -> Mineq.Fingerprint.of_network g) in
                    ignore (Trace.leave l_pool_task);
                    lat.(idx) <- Trace.thread_cpu_ns () - a;
                    (idx, g, fp))
                  (Array.init m Fun.id))
          in
          let m1 = Trace.now_ns () in
          map_ns := !map_ns + (m1 - m0);
          span l_merge (fun () ->
              Array.iter
                (fun (idx, g, fp) ->
                  let a = Trace.thread_cpu_ns () in
                  let bucket =
                    match Hashtbl.find_opt buckets fp with
                    | Some b -> b
                    | None ->
                        let b = ref [] in
                        Hashtbl.add buckets fp b;
                        b
                  in
                  let rec place = function
                    | [] ->
                        let c = { rep = g; first = idx; members = 1 } in
                        bucket := !bucket @ [ c ];
                        incr nclasses;
                        order := c :: !order
                    | c :: rest ->
                        incr iso_calls;
                        let found =
                          span l_iso_min (fun () -> Option.is_some (Mineq.Iso_min.find g c.rep))
                        in
                        if found then begin
                          incr iso_confirmed;
                          c.members <- c.members + 1
                        end
                        else place rest
                  in
                  place !bucket;
                  lat.(idx) <- lat.(idx) + (Trace.thread_cpu_ns () - a))
                items);
          merge_ns := !merge_ns + (Trace.now_ns () - m1)
        done;
        let classes =
          List.rev_map
            (fun c ->
              let v =
                span l_characterization (fun () -> Mineq.Equivalence.by_characterization c.rep)
              in
              (c, v.Mineq.Equivalence.equivalent))
            !order
        in
        (classes, Hashtbl.length buckets, !nclasses - Hashtbl.length buckets))
  in
  let wall = Trace.now_ns () - t0 in
  Trace.set_enabled false;
  let classes, nbuckets, collisions = summary in
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "streamed %d pipid specs at n=%d: %d isomorphism classes in %d fingerprint buckets (%d \
     collisions)\n"
    specs n (List.length classes) nbuckets collisions;
  List.iteri
    (fun i (c, baseline) ->
      Printf.bprintf b "  class %d: %6d members  first=%-6d%s\n" (i + 1) c.members c.first
        (if baseline then "  <- the Baseline class" else ""))
    classes;
  Printf.bprintf b "baseline class present: %b\n" (List.exists snd classes);
  { c_text = Buffer.contents b;
    c_wall_ns = wall;
    c_map_ns = !map_ns;
    c_merge_ns = !merge_ns;
    c_iso_calls = !iso_calls;
    c_iso_confirmed = !iso_confirmed;
    c_classes = List.length classes;
    c_buckets = nbuckets;
    c_collisions = collisions;
    c_latency = lat;
    c_coverage = float_of_int (Trace.caller_self_ns ()) /. float_of_int wall
  }

(* churn ---------------------------------------------------------------- *)

let hist_bins = 17

(* bins: moved histogram, then connects, disconnects, moved total,
   rearranged connects, consistency failures — Survey's layout *)
let churn_bins = hist_bins + 5

type churn_result = {
  r_text : string;
  r_wall_ns : int;
  r_map_ns : int;
  r_row : Mineq_route.Survey.churn_row;
  r_connect_ns : int array;  (** per-connect ns, all trials *)
  r_op_ns : int array;  (** per-op ns (connect or disconnect), all trials *)
  r_coverage : float;
}

let rec free_output st rr nt =
  let o = Random.State.int st nt in
  if Rearrange.input_of rr o < 0 then o else free_output st rr nt

(* [Survey.churn_trial]; op [k]'s duration goes to [op_ns.(k)], and
   [is_connect] marks the connects among them. *)
let churn_trial ~n ~ops st bins ~op_ns ~is_connect =
  let rr = Rearrange.create n in
  let nt = Rearrange.terminals rr in
  for k = 0 to ops - 1 do
    let i = Random.State.int st nt in
    if Rearrange.output_of rr i >= 0 then begin
      let a = Trace.now_ns () in
      Trace.enter l_disconnect;
      ignore (Rearrange.disconnect rr ~input:i);
      ignore (Trace.leave l_disconnect);
      op_ns.(k) <- Trace.now_ns () - a;
      bins.(hist_bins + 1) <- bins.(hist_bins + 1) + 1
    end
    else begin
      let o = free_output st rr nt in
      let a = Trace.now_ns () in
      Trace.enter l_connect;
      let status = Rearrange.connect rr ~input:i ~output:o in
      ignore (Trace.leave l_connect);
      op_ns.(k) <- Trace.now_ns () - a;
      Bytes.set is_connect k '\001';
      (match status with Rearrange.Done -> () | _ -> failwith "churn: connect refused");
      let mv = Rearrange.last_moved rr in
      bins.(min mv (hist_bins - 1)) <- bins.(min mv (hist_bins - 1)) + 1;
      bins.(hist_bins) <- bins.(hist_bins) + 1;
      bins.(hist_bins + 2) <- bins.(hist_bins + 2) + mv;
      if mv > 0 then bins.(hist_bins + 3) <- bins.(hist_bins + 3) + 1
    end
  done;
  if not (span l_consistent (fun () -> Rearrange.consistent rr)) then
    bins.(hist_bins + 4) <- bins.(hist_bins + 4) + 1

let run_churn ~trace ~jobs ~root ~n ~ops ~trials =
  Trace.reset ();
  Trace.set_enabled trace;
  let t0 = Trace.now_ns () in
  let map_ns = ref 0 in
  let parts =
    Pool.run ~jobs (fun pool ->
        let m0 = Trace.now_ns () in
        let parts =
          span l_pool_map (fun () ->
              Pool.map_list pool
                (fun i ->
                  Trace.enter_rid l_pool_task i;
                  let bins = Array.make churn_bins 0 in
                  let op_ns = Array.make ops 0 and is_connect = Bytes.make ops '\000' in
                  churn_trial ~n ~ops (Seeds.derive ~root i) bins ~op_ns ~is_connect;
                  ignore (Trace.leave l_pool_task);
                  (bins, op_ns, is_connect))
                (List.init trials Fun.id))
        in
        map_ns := Trace.now_ns () - m0;
        parts)
  in
  let t1 = Trace.now_ns () in
  Trace.set_enabled false;
  let bins = Array.make churn_bins 0 in
  List.iter (fun (p, _, _) -> Array.iteri (fun k v -> bins.(k) <- bins.(k) + v) p) parts;
  let row : Mineq_route.Survey.churn_row =
    { cn = n; ops; ctrials = trials; connects = bins.(hist_bins);
      disconnects = bins.(hist_bins + 1); moved_total = bins.(hist_bins + 2);
      rearranged = bins.(hist_bins + 3); moved_hist = Array.sub bins 0 hist_bins;
      failures = bins.(hist_bins + 4)
    }
  in
  let b = Buffer.create 512 in
  Printf.bprintf b "churn benes n=%d: %d ops x %d trial(s), seed %d\n" n ops trials root;
  Printf.bprintf b "connects %d  disconnects %d  rearranged %.1f%% of connects\n" row.connects
    row.disconnects
    (100.0 *. Mineq_route.Survey.rearranged_fraction row);
  Printf.bprintf b "connections moved per connect: %.3f mean\n"
    (Mineq_route.Survey.moved_per_connect row);
  Buffer.add_string b "moved histogram:";
  Array.iteri
    (fun k c ->
      if c > 0 then
        if k = hist_bins - 1 then Printf.bprintf b " %d+:%d" k c else Printf.bprintf b " %d:%d" k c)
    row.moved_hist;
  Buffer.add_char b '\n';
  Printf.bprintf b "end-of-trial consistency failures: %d\n" row.failures;
  let wall = t1 - t0 in
  { r_text = Buffer.contents b;
    r_wall_ns = wall;
    r_map_ns = !map_ns;
    r_row = row;
    r_connect_ns =
      Array.concat
        (List.map
           (fun (_, op_ns, is_connect) ->
             let c = ref [] in
             Array.iteri (fun k d -> if Bytes.get is_connect k <> '\000' then c := d :: !c) op_ns;
             Array.of_list !c)
           parts);
    r_op_ns = Array.concat (List.map (fun (_, o, _) -> o) parts);
    r_coverage = float_of_int (Trace.caller_self_ns ()) /. float_of_int wall
  }
