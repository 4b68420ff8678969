(* Span recorder for the traced replay.

   Each domain keeps its own stack of open spans, per-layer
   aggregates (calls, self time, span time) and a bounded buffer of
   raw spans, so recording takes no lock.  A span's self time is its
   duration minus the durations of the spans nested in it on the same
   domain.  Spans nest strictly on one domain, so that difference is
   exactly the part of the interval no child covers.

   When recording is off, [enter] and [leave] read one atomic flag
   and do nothing else. *)

let max_layers = 64

let max_depth = 64

(* Raw spans kept per domain; the aggregates are exact beyond it. *)
let buffer_spans = 20_000

let span_words = 5 (* layer, start, end, parent index, request id *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* CPU time of the calling thread, in ns. *)
external thread_cpu_ns : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]

let names = Array.make max_layers ""

let n_layers = ref 0

type layer = int

let register name =
  let rec find i = if i >= !n_layers then None else if names.(i) = name then Some i else find (i + 1) in
  match find 0 with
  | Some i -> i
  | None ->
      if !n_layers >= max_layers then invalid_arg "Trace.register: too many layers";
      let i = !n_layers in
      names.(i) <- name;
      incr n_layers;
      i

let on = Atomic.make false

let set_enabled b = Atomic.set on b

type dstate = {
  dom : int;
  mutable depth : int;
  stk_layer : int array;
  stk_start : int array;
  stk_child : int array;
  stk_idx : int array;
  calls : int array;
  self : int array;
  span : int array;
  buf : int array;
  mutable nbuf : int;
}

let registry = ref []

let registry_m = Mutex.create ()

let make_state () =
  let st =
    { dom = (Domain.self () :> int);
      depth = 0;
      stk_layer = Array.make max_depth 0;
      stk_start = Array.make max_depth 0;
      stk_child = Array.make max_depth 0;
      stk_idx = Array.make max_depth (-1);
      calls = Array.make max_layers 0;
      self = Array.make max_layers 0;
      span = Array.make max_layers 0;
      buf = Array.make (buffer_spans * span_words) 0;
      nbuf = 0
    }
  in
  Mutex.lock registry_m;
  registry := st :: !registry;
  Mutex.unlock registry_m;
  st

let key = Domain.DLS.new_key make_state

let enter_rid layer rid =
  if Atomic.get on then begin
    let st = Domain.DLS.get key in
    let d = st.depth in
    if d >= max_depth then failwith "Trace.enter: spans nested too deep";
    let t = now_ns () in
    st.stk_layer.(d) <- layer;
    st.stk_start.(d) <- t;
    st.stk_child.(d) <- 0;
    if st.nbuf < buffer_spans then begin
      let i = st.nbuf in
      let o = i * span_words in
      st.buf.(o) <- layer;
      st.buf.(o + 1) <- t;
      st.buf.(o + 3) <- (if d = 0 then -1 else st.stk_idx.(d - 1));
      st.buf.(o + 4) <- rid;
      st.stk_idx.(d) <- i;
      st.nbuf <- i + 1
    end
    else st.stk_idx.(d) <- -1;
    st.depth <- d + 1
  end

let enter layer = enter_rid layer (-1)

(* Closes the innermost span, which must be [layer]; returns its
   duration in ns (0 when recording is off). *)
let leave layer =
  if Atomic.get on then begin
    let t = now_ns () in
    let st = Domain.DLS.get key in
    let d = st.depth - 1 in
    if d < 0 || st.stk_layer.(d) <> layer then
      failwith ("Trace.leave: unbalanced span " ^ names.(layer));
    st.depth <- d;
    let dur = t - st.stk_start.(d) in
    st.calls.(layer) <- st.calls.(layer) + 1;
    st.self.(layer) <- st.self.(layer) + (dur - st.stk_child.(d));
    st.span.(layer) <- st.span.(layer) + dur;
    if d > 0 then st.stk_child.(d - 1) <- st.stk_child.(d - 1) + dur;
    let i = st.stk_idx.(d) in
    if i >= 0 then st.buf.((i * span_words) + 2) <- t;
    dur
  end
  else 0

let with_span layer f =
  enter layer;
  match f () with
  | v ->
      ignore (leave layer);
      v
  | exception e ->
      ignore (leave layer);
      raise e

let states () =
  Mutex.lock registry_m;
  let l = !registry in
  Mutex.unlock registry_m;
  l

let reset () =
  List.iter
    (fun st ->
      st.depth <- 0;
      st.nbuf <- 0;
      Array.fill st.calls 0 max_layers 0;
      Array.fill st.self 0 max_layers 0;
      Array.fill st.span 0 max_layers 0)
    (states ())

let sum field layer = List.fold_left (fun acc st -> acc + (field st).(layer)) 0 (states ())

let calls layer = sum (fun st -> st.calls) layer

let self_ns layer = sum (fun st -> st.self) layer

let span_ns layer = sum (fun st -> st.span) layer

(* Mean self time per call in microseconds; 0 for a layer never
   called. *)
let self_us_per_call layer =
  let c = calls layer in
  if c = 0 then 0.0 else float_of_int (self_ns layer) /. float_of_int c /. 1e3

(* Self time of every layer recorded on the calling domain.  Spans
   nest, so this is the part of the caller's time spent inside some
   layer span: divided by the caller's wall time it is the trace's
   coverage. *)
let caller_self_ns () =
  let st = Domain.DLS.get key in
  Array.fold_left ( + ) 0 st.self

let write path =
  let oc = open_out path in
  let layers = List.init !n_layers Fun.id in
  Printf.fprintf oc "{\"layers\": [";
  List.iteri
    (fun k l ->
      Printf.fprintf oc "%s{\"name\": %S, \"calls\": %d, \"self_ns\": %d, \"span_ns\": %d}"
        (if k = 0 then "" else ", ")
        names.(l) (calls l) (self_ns l) (span_ns l))
    layers;
  Printf.fprintf oc "],\n \"spans\": [";
  let first = ref true in
  List.iter
    (fun st ->
      for i = 0 to st.nbuf - 1 do
        let o = i * span_words in
        (* a span still open at write time has no end yet *)
        if st.buf.(o + 2) >= st.buf.(o + 1) then begin
          Printf.fprintf oc
            "%s\n  {\"name\": %S, \"domain\": %d, \"index\": %d, \"start_ns\": %d, \
             \"end_ns\": %d, \"parent\": %d, \"request\": %d}"
            (if !first then "" else ",")
            names.(st.buf.(o)) st.dom i st.buf.(o + 1) st.buf.(o + 2) st.buf.(o + 3)
            st.buf.(o + 4);
          first := false
        end
      done)
    (List.rev (states ()));
  Printf.fprintf oc "\n ]}\n";
  close_out oc
