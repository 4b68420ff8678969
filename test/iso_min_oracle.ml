(* Reference oracle for [Mineq.Iso_min]: the plain backtracking search
   that tries every label [0 .. per-1] at every search node, over the
   same BFS order.  [Iso_min] narrows non-root candidates to the
   neighbours of a mapped neighbour's image; the differential tests
   hold it to this oracle mapping for mapping and node count for node
   count (the [~limit] failure points). *)

let search ~limit ~on_solution a b =
  let pa = Mineq.Mi_digraph.packed a and pb = Mineq.Mi_digraph.packed b in
  let n = pa.p_stages and per = pa.p_per in
  if n = pb.p_stages && per = pb.p_per then begin
    let total = n * per in
    (* BFS over the undirected digraph: successors, then predecessors. *)
    let order = Array.make total 0 and seen = Array.make total false in
    let filled = ref 0 and head = ref 0 in
    let push id =
      if not seen.(id) then (seen.(id) <- true; order.(!filled) <- id; incr filled)
    in
    for root = 0 to total - 1 do
      push root;
      while !head < !filled do
        let id = order.(!head) in
        incr head;
        if id / per < n - 1 then (push pa.p_succ.(2 * id); push pa.p_succ.((2 * id) + 1));
        if id / per > 0 then (push pa.p_pred.(2 * (id - per)); push pa.p_pred.((2 * (id - per)) + 1))
      done
    done;
    let map = Array.init n (fun _ -> Array.make per (-1)) in
    let used = Array.init n (fun _ -> Array.make per false) in
    let mult ch x y = (if ch.(2 * x) = y then 1 else 0) + if ch.((2 * x) + 1) = y then 1 else 0 in
    (* Arc multiplicities of x -> y against every mapped neighbour. *)
    let compatible s x y =
      let out t = map.(s + 1).(t) < 0 || mult pa.p_child.(s) x t = mult pb.p_child.(s) y map.(s + 1).(t) in
      let inc d =
        let pl = d mod per in
        map.(s - 1).(pl) < 0 || mult pa.p_child.(s - 1) pl x = mult pb.p_child.(s - 1) map.(s - 1).(pl) y
      in
      let base = 2 * (((s - 1) * per) + x) in
      (s >= n - 1 || (out pa.p_child.(s).(2 * x) && out pa.p_child.(s).((2 * x) + 1)))
      && (s = 0 || (inc pa.p_pred.(base) && inc pa.p_pred.(base + 1)))
    in
    let explored = ref 0 in
    let rec go i =
      incr explored;
      if limit > 0 && !explored > limit then failwith "oracle: node limit exceeded";
      if i = total then on_solution map
      else
        let s = order.(i) / per and x = order.(i) mod per in
        for y = 0 to per - 1 do
          if (not used.(s).(y)) && compatible s x y then begin
            map.(s).(x) <- y;
            used.(s).(y) <- true;
            go (i + 1);
            map.(s).(x) <- -1;
            used.(s).(y) <- false
          end
        done
    in
    go 0
  end

exception Found of int array array

let find ?(limit = 0) a b =
  match search ~limit ~on_solution:(fun m -> raise (Found (Array.map Array.copy m))) a b with
  | () -> None
  | exception Found m -> Some m

let automorphism_count ?(limit = 0) g =
  let count = ref 0 in
  search ~limit ~on_solution:(fun _ -> incr count) g g;
  !count
