(* The serve workloads' runner: boots the daemon, runs a closed loop
   of requests against it and checks every reply.

   Closed loop: each connection carries one request at a time and
   sends the next only when the reply is complete, as the daemon's
   real callers ([serve --call], scripts) do.  A host stall then
   delays the requests in flight and nothing else, so the figures do
   not depend on how far a generator fell behind a schedule.  The
   client is one thread multiplexing its connections with select. *)

module Proto = Mineq_serve.Proto

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* The daemon currently running, killed and reaped if pb exits
   before shutting it down. *)
let live = ref None

let () =
  at_exit (fun () ->
      match !live with
      | None -> ()
      | Some pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          live := None)

let spawn_daemon ~cli ~socket =
  let null = devnull () in
  let pid =
    Unix.create_process cli [| cli; "serve"; "--socket"; socket; "--jobs"; "1" |] null null null
  in
  Unix.close null;
  live := Some pid;
  pid

let rec restart_on_intr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_intr f

let max_response = 64 * Proto.max_frame_default

let call fd request =
  Proto.write_frame fd (Proto.json_to_string request);
  match Proto.read_frame ~max_frame:max_response fd with
  | Ok s -> Proto.json_of_string s
  | Error _ -> Error "no reply"

(* Connect as soon as the socket accepts, polling every 0.5 ms: a
   coarser poll would quantize the boot time we measure. *)
let connect_when_ready ~socket ~pid ~timeout_s =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "the daemon exited during boot");
        if Unix.gettimeofday () -. t0 > timeout_s then failwith "the daemon did not come up";
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let ping fd =
  match call fd (Proto.Obj [ ("op", Proto.Str "ping") ]) with
  | Ok r when Proto.response_ok r -> ()
  | _ -> failwith "the daemon did not answer ping"

let shutdown_daemon fd pid =
  (match call fd (Proto.Obj [ ("op", Proto.Str "shutdown") ]) with
  | Ok _ | Error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let status = snd (restart_on_intr (fun () -> Unix.waitpid [] pid)) in
  live := None;
  status = Unix.WEXITED 0

(* Peak resident set of a live process, from /proc. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    | exception End_of_file -> nan
  in
  let v = scan () in
  close_in ic;
  v

type loop = {
  latency_ns : int array;  (** per answered request, in answer order *)
  done_ns : int array;  (** answer times, from the loop's start *)
  answered : int;
  responses : string option array;  (** by request index; None = no reply *)
  wall_ns : int;
}

(* Closed loop over [fds]: request [i] goes out on whichever
   connection frees up next; each latency runs from the frame write to
   the full response read.  Identical replies are stored once. *)
let closed_loop fds payloads =
  let n = Array.length payloads in
  let c = Array.length fds in
  let responses = Array.make n None in
  let interned = Hashtbl.create 1024 in
  let intern s =
    match Hashtbl.find_opt interned s with
    | Some s0 -> s0
    | None ->
        Hashtbl.add interned s s;
        s
  in
  let latency_ns = Array.make n 0 and done_ns = Array.make n 0 in
  let answered = ref 0 and settled = ref 0 in
  let next = ref 0 in
  let inflight = Array.make c (-1) and started = Array.make c 0 in
  let alive = Array.make c true in
  (* A dead connection's later requests go to the live ones; the
     request it held is settled unanswered. *)
  let send k =
    if !next < n then begin
      let i = !next in
      incr next;
      inflight.(k) <- i;
      started.(k) <- Trace.now_ns ();
      match Proto.write_frame fds.(k) payloads.(i) with
      | () -> ()
      | exception Unix.Unix_error _ ->
          alive.(k) <- false;
          inflight.(k) <- -1;
          incr settled
    end
    else inflight.(k) <- -1
  in
  let t0 = Trace.now_ns () in
  Array.iteri (fun k _ -> send k) fds;
  while !settled < n do
    let waiting =
      List.filter (fun k -> alive.(k) && inflight.(k) >= 0) (List.init c Fun.id)
    in
    if waiting = [] then begin
      (* every connection is dead: the rest go unanswered *)
      settled := !settled + (n - !next);
      next := n
    end
    else begin
      let ready, _, _ =
        restart_on_intr (fun () -> Unix.select (List.map (fun k -> fds.(k)) waiting) [] [] (-1.0))
      in
      List.iter
        (fun k ->
          if List.memq fds.(k) ready then begin
            let i = inflight.(k) in
            match Proto.read_frame ~max_frame:max_response fds.(k) with
            | Ok s ->
                let t = Trace.now_ns () in
                latency_ns.(!answered) <- t - started.(k);
                done_ns.(!answered) <- t - t0;
                incr answered;
                incr settled;
                responses.(i) <- Some (intern s);
                send k
            | Error _ | (exception Unix.Unix_error _) ->
                alive.(k) <- false;
                inflight.(k) <- -1;
                incr settled
          end)
        waiting
    end
  done;
  { latency_ns; done_ns; answered = !answered; responses; wall_ns = Trace.now_ns () - t0 }

let open_conns ~socket ~pid ~conns =
  Array.init conns (fun _ -> connect_when_ready ~socket ~pid ~timeout_s:30.0)

(* Daemon counters, read through the stats op. *)
type counters = {
  requests : int;
  shed : int;
  deadline_expired : int;
  errors : int;
  batches : int;
  cache : (string * (int * int * int)) list;  (** name, (hits, misses, size) *)
}

let counters fd =
  match call fd (Proto.Obj [ ("op", Proto.Str "stats") ]) with
  | Error _ -> failwith "stats request failed"
  | Ok r ->
      let m = Proto.member "metrics" r in
      let i name j = Option.value (Proto.to_int (Proto.member name j)) ~default:0 in
      let cache name =
        let c = Proto.member name (Proto.member "caches" r) in
        (name, (i "hits" c, i "misses" c, i "size" c))
      in
      { requests = i "requests" m; shed = i "shed" m; deadline_expired = i "deadline_expired" m;
        errors = i "errors" m; batches = i "batches" m;
        cache = [ cache "equiv"; cache "lint"; cache "blocking" ]
      }

type boot = {
  setup_s : float;  (** spawn to first answered ping, plus the warm pass *)
  loop : loop;  (** this boot's share of the timed requests *)
  before : counters;
  after : counters;
  rss_mb : float;
  clean_exit : bool;
}

(* One daemon boot: timed from spawn to the first answered ping plus
   the warm pass, then the closed loop over [timed], then shutdown. *)
let boot ~cli ~socket ~conns ~warm ~timed =
  let t0 = Unix.gettimeofday () in
  let pid = spawn_daemon ~cli ~socket in
  let fds = open_conns ~socket ~pid ~conns in
  ping fds.(0);
  let w = closed_loop fds warm in
  if w.answered <> Array.length warm then failwith "the warm pass went unanswered";
  let setup_s = Unix.gettimeofday () -. t0 in
  let before = counters fds.(0) in
  let loop = closed_loop fds timed in
  let after = counters fds.(0) in
  let rss_mb = peak_rss_mb pid in
  Array.iteri (fun j fd -> if j > 0 then Unix.close fd) fds;
  let clean_exit = shutdown_daemon fds.(0) pid in
  { setup_s; loop; before; after; rss_mb; clean_exit }

(* The timed requests split into [boots] contiguous shares, one per
   daemon boot.  Restarting bounds the cold daemon's resident growth,
   and spreads the timed phase over the whole run. *)
let shares ~boots timed =
  let n = Array.length timed in
  List.init boots (fun k ->
      let lo = k * n / boots and hi = (k + 1) * n / boots in
      Array.sub timed lo (hi - lo))

let run ~cli ~socket ~conns ~boots ~warm ~timed =
  List.map (fun share -> boot ~cli ~socket ~conns ~warm ~timed:share) (shares ~boots timed)
