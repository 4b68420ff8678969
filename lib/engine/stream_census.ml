(* Streaming hash-bucketed census.

   Specs flow through the pool in bounded-memory chunks: each chunk
   generates its networks from per-index derived RNG streams and
   fingerprints them in parallel, then runs three steps.
     1. A serial pre-pass in index order fixes the class head each
        spec is confirmed against: the first class of its bucket from
        earlier chunks, or else the first spec of this chunk with the
        same fingerprint (none for that first spec itself).
     2. One pool batch runs [Iso_min.find g head] for every spec with
        a head.
     3. The serial in-order merge places each spec: it takes the
        precomputed result for the bucket head and searches the rest
        of the bucket serially, which only real fingerprint
        collisions reach.
   Only one chunk of networks plus one representative per discovered
   class is ever live, so the memory profile is O(classes + chunk)
   however many specs stream through.

   Jobs-invariance: the chunk size is a function of the spec count
   alone, every network is generated from [Seeds.derive ~root index]
   (so the stream of specs is fixed by the root seed), and the pool
   writes results at fixed indices.  A bucket's first class is the
   first spec ever seen with its fingerprint, so the head the pre-pass
   picks is exactly the class the serial merge compares against first;
   the batch only moves that comparison off the serial path, and the
   merge walks chunks and indices in order.  Nothing about bucket
   iteration order reaches the output: classes are reported in first
   appearance order of their first member. *)

module Fp = Mineq.Fingerprint

type generator = Random_links | Pipid | Affine

let all_generators = [ Random_links; Pipid; Affine ]

let generator_name = function
  | Random_links -> "random"
  | Pipid -> "pipid"
  | Affine -> "affine"

let generator_of_string = function
  | "random" -> Some Random_links
  | "pipid" -> Some Pipid
  | "affine" -> Some Affine
  | _ -> None

let generate gen rng ~n =
  match gen with
  | Random_links -> Mineq.Link_spec.random_network rng ~n
  | Pipid -> Mineq.Link_spec.random_pipid_network rng ~n
  | Affine ->
      Mineq.Mi_digraph.create
        (List.init (n - 1) (fun _ -> Mineq.Connection.random_independent rng ~width:(n - 1)))

type class_row = {
  representative : Mineq.Mi_digraph.t;
  first_index : int;
  count : int;
  baseline : bool;
}

type summary = {
  generator : generator;
  n : int;
  specs : int;
  classes : class_row list;  (** first-appearance order *)
  buckets : int;  (** distinct fingerprints seen *)
  collisions : int;  (** classes beyond one per bucket, resolved by Iso_min *)
}

(* Bounded chunks: a function of the workload only (never of [jobs]),
   so the generated stream and the merge order are identical at any
   parallel width; small enough to bound live networks, large enough
   to amortize the batch latch. *)
let chunk_for ~specs = max 64 (min 4096 (specs / 32))

type cls = { rep : Mineq.Mi_digraph.t; first : int; mutable members : int }

let run_in pool ~root ~n ~specs ~generator =
  if n < 2 then invalid_arg "Stream_census.run_in: need n >= 2";
  if specs < 0 then invalid_arg "Stream_census.run_in: negative spec count";
  let chunk = chunk_for ~specs in
  let buckets : (Fp.t, cls list ref) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let nclasses = ref 0 in
  let nchunks = (specs + chunk - 1) / chunk in
  for c = 0 to nchunks - 1 do
    let base = c * chunk in
    let m = min chunk (specs - base) in
    let items =
      Pool.map_array pool
        (fun i ->
          let idx = base + i in
          let g = generate generator (Seeds.derive ~root idx) ~n in
          (idx, g, Fp.of_network g))
        (Array.init m Fun.id)
    in
    (* Pre-pass, in index order: the class head each spec will be
       confirmed against — its bucket's first class, or the first
       spec of this chunk with the same fingerprint.  Either way it is
       the head the serial merge below reaches first. *)
    let fresh = Hashtbl.create 16 in
    let heads =
      Array.map
        (fun (_, g, fp) ->
          match Hashtbl.find_opt buckets fp with
          | Some { contents = c :: _ } -> Some c.rep
          | Some { contents = [] } | None -> (
              match Hashtbl.find_opt fresh fp with
              | Some _ as head -> head
              | None ->
                  Hashtbl.add fresh fp g;
                  None))
        items
    in
    let at_head =
      Pool.map_array pool
        (fun i ->
          let _, g, _ = items.(i) in
          match heads.(i) with
          | Some h -> Option.is_some (Mineq.Iso_min.find g h)
          | None -> false)
        (Array.init m Fun.id)
    in
    Array.iteri
      (fun i (idx, g, fp) ->
        let bucket =
          match Hashtbl.find_opt buckets fp with
          | Some b -> b
          | None ->
              let b = ref [] in
              Hashtbl.add buckets fp b;
              b
        in
        let rec place ~head = function
          | [] ->
              let c = { rep = g; first = idx; members = 1 } in
              bucket := !bucket @ [ c ];
              incr nclasses;
              order := c :: !order
          | c :: rest ->
              let same =
                if head then at_head.(i) else Option.is_some (Mineq.Iso_min.find g c.rep)
              in
              if same then c.members <- c.members + 1 else place ~head:false rest
        in
        place ~head:true !bucket)
      items
  done;
  let classes =
    List.rev_map
      (fun c ->
        { representative = c.rep;
          first_index = c.first;
          count = c.members;
          baseline = (Mineq.Equivalence.by_characterization c.rep).equivalent
        })
      !order
  in
  { generator;
    n;
    specs;
    classes;
    buckets = Hashtbl.length buckets;
    collisions = !nclasses - Hashtbl.length buckets
  }

let run ~jobs ~root ~n ~specs ~generator =
  Pool.run ~jobs (fun pool -> run_in pool ~root ~n ~specs ~generator)
