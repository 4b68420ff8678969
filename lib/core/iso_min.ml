type mapping = int array array

(* BFS order over the undirected MI-digraph (packed dense ids, flat
   int-array queue) so that — except for component roots — every node
   appears after one of its neighbours.  [anchor.(i)] is the dense id
   of the neighbour that discovered [order.(i)] (itself earlier in the
   order, hence already mapped when the search reaches position [i]),
   or [-1] for a component root. *)
let bfs_order (p : Mi_digraph.packed) =
  let per = p.p_per in
  let n = p.p_stages in
  let total = n * per in
  let order = Array.make total 0 in
  let anchor = Array.make total (-1) in
  let seen = Array.make total false in
  let filled = ref 0 in
  let head = ref 0 in
  let push ~from id =
    if not seen.(id) then begin
      seen.(id) <- true;
      order.(!filled) <- id;
      anchor.(!filled) <- from;
      incr filled
    end
  in
  for root = 0 to total - 1 do
    if not seen.(root) then begin
      push ~from:(-1) root;
      while !head < !filled do
        let id = order.(!head) in
        incr head;
        let s = id / per in
        if s < n - 1 then begin
          push ~from:id p.p_succ.(2 * id);
          push ~from:id p.p_succ.((2 * id) + 1)
        end;
        if s > 0 then begin
          push ~from:id p.p_pred.(2 * (id - per));
          push ~from:id p.p_pred.((2 * (id - per)) + 1)
        end
      done
    end
  done;
  (order, anchor)

let arc_mult_children c x y =
  let cf, cg = Connection.children c x in
  (if cf = y then 1 else 0) + if cg = y then 1 else 0

(* Backtracking search for stage-respecting isomorphisms from [a]
   onto [b]; calls [on_solution] with each complete mapping (the
   callback may raise to stop early).

   Runs entirely over the packed child tables and predecessor slots,
   allocation-free on the hot path.  Candidates for a non-root node
   come from its BFS anchor: the anchor is adjacent to [x] and already
   mapped, and [compatible] demands equal arc multiplicities against
   every mapped neighbour, so any label that passes is adjacent to
   the anchor's image — one of the (at most two) parents of that
   image when the anchor is a child of [x], one of its children when
   the anchor is a parent.  Trying just those, in ascending label
   order, accepts exactly the labels a full [0 .. per-1] scan would
   accept and in the same order, so the explored tree, the node count
   behind [limit], the first mapping found and the automorphism count
   are those of the full scan.  Only component roots scan every
   label. *)
let search ~limit ~on_solution a b =
  let pa = Mi_digraph.packed a in
  let pb = Mi_digraph.packed b in
  let n = pa.p_stages in
  let per = pa.p_per in
  if n <> pb.p_stages || per <> pb.p_per then ()
  else begin
    let order, anchor = bfs_order pa in
    let map = Array.init n (fun _ -> Array.make per (-1)) in
    let used = Array.init n (fun _ -> Array.make per false) in
    (* Arc multiplicity x -> y in an interleaved binary child table
       (p_radix = 2: the packing of any Mi_digraph). *)
    let mult ch x y =
      (if ch.(2 * x) = y then 1 else 0) + if ch.((2 * x) + 1) = y then 1 else 0
    in
    (* Consistency of x -> y at 0-based stage s against already-mapped
       neighbours: arc multiplicities must match in both gaps. *)
    let compatible s x y =
      (s >= n - 1
      ||
      let cha = pa.p_child.(s) and chb = pb.p_child.(s) and next = map.(s + 1) in
      let t0 = cha.(2 * x) and t1 = cha.((2 * x) + 1) in
      let m0 = next.(t0) and m1 = next.(t1) in
      (m0 < 0 || mult cha x t0 = mult chb y m0) && (m1 < 0 || mult cha x t1 = mult chb y m1))
      && (s = 0
         ||
         let cha = pa.p_child.(s - 1) and chb = pb.p_child.(s - 1) and prev = map.(s - 1) in
         let base = 2 * (((s - 1) * per) + x) in
         let p0 = pa.p_pred.(base) mod per and p1 = pa.p_pred.(base + 1) mod per in
         let m0 = prev.(p0) and m1 = prev.(p1) in
         (m0 < 0 || mult cha p0 x = mult chb m0 y) && (m1 < 0 || mult cha p1 x = mult chb m1 y))
    in
    let nodes_explored = ref 0 in
    let total = n * per in
    let rec go i =
      incr nodes_explored;
      if limit > 0 && !nodes_explored > limit then failwith "iso_min: node limit exceeded";
      if i = total then on_solution map
      else begin
        let id = order.(i) in
        let s = id / per and x = id mod per in
        let a = anchor.(i) in
        if a < 0 then
          for y = 0 to per - 1 do
            try_label i s x y
          done
        else begin
          let sa = a / per in
          let ma = map.(sa).(a mod per) in
          (* The [b]-neighbours of the anchor's image on stage [s]:
             its parents when the anchor sits on stage [s + 1], else
             its children. *)
          let up = sa > s in
          let base = if up then 2 * ((s * per) + ma) else 2 * ma in
          let y0 = if up then pb.p_pred.(base) - (s * per) else pb.p_child.(s - 1).(base) in
          let y1 =
            if up then pb.p_pred.(base + 1) - (s * per) else pb.p_child.(s - 1).(base + 1)
          in
          let lo = if y0 <= y1 then y0 else y1 and hi = if y0 <= y1 then y1 else y0 in
          try_label i s x lo;
          if hi <> lo then try_label i s x hi
        end
      end
    and try_label i s x y =
      if (not used.(s).(y)) && compatible s x y then begin
        map.(s).(x) <- y;
        used.(s).(y) <- true;
        go (i + 1);
        map.(s).(x) <- -1;
        used.(s).(y) <- false
      end
    in
    go 0
  end

exception Found of mapping

let find ?(limit = 0) a b =
  match search ~limit ~on_solution:(fun m -> raise (Found (Array.map Array.copy m))) a b with
  | () -> None
  | exception Found m -> Some m

let to_baseline ?limit g = find ?limit g (Baseline.network (Mi_digraph.stages g))

let verify a b m =
  let n = Mi_digraph.stages a in
  let per = Mi_digraph.nodes_per_stage a in
  let stage_bijection stage_map =
    Array.length stage_map = per
    &&
    let seen = Array.make per false in
    Array.for_all
      (fun y ->
        y >= 0 && y < per
        &&
        if seen.(y) then false
        else begin
          seen.(y) <- true;
          true
        end)
      stage_map
  in
  n = Mi_digraph.stages b
  && per = Mi_digraph.nodes_per_stage b
  && Array.length m = n
  && Array.for_all stage_bijection m
  && List.for_all
       (fun gap ->
         let c_a = Mi_digraph.connection a gap and c_b = Mi_digraph.connection b gap in
         let rec ok x =
           x = per
           || (let cf, cg = Connection.children c_a x in
               List.for_all
                 (fun y ->
                   arc_mult_children c_a x y
                   = arc_mult_children c_b m.(gap - 1).(x) m.(gap).(y))
                 (List.sort_uniq compare [ cf; cg ])
              && ok (x + 1))
         in
         ok 0)
       (List.init (n - 1) (fun i -> i + 1))

let apply g m = Mi_digraph.relabel g (fun ~stage x -> m.(stage - 1).(x))

let automorphism_count ?(limit = 0) g =
  let count = ref 0 in
  search ~limit ~on_solution:(fun _ -> incr count) g g;
  !count
