(* Structural keys ---------------------------------------------------

   The pre-sharding memo keyed on [Digest.string (Spec_io.to_string g)]
   — an MD5 of the rendered spec text, serializing the whole network
   on every probe.  The replacement key is the network itself under a
   cheap structural hash: per gap, per source label, the unordered
   child pair [(min (f x) (g x), max (f x) (g x))] folded through a
   multiply-xor mixer.  Using the unordered pair makes both hash and
   equality insensitive to the non-canonical [(f, g)] decomposition
   (swapping [f] and [g] is the same digraph), which is exactly the
   arc-multiset equality [Mi_digraph.equal] implements — but computed
   pointwise with no allocation.  Collisions are harmless: the
   hashtable falls back on [structural_equal].

   A second keying collapses entries further: the canonical
   Fingerprint identifies all isomorphic networks (up to WL hash
   collisions), so iso-invariant computations — every verdict that
   depends only on the isomorphism class — hit the cache across
   relabellings the structural key treats as distinct.  The keying is
   chosen at [create] time; the probing API is identical. *)

let structural_equal a b =
  let module M = Mineq.Mi_digraph in
  let module C = Mineq.Connection in
  M.width a = M.width b
  && M.stages a = M.stages b
  &&
  let per = M.nodes_per_stage a in
  let rec gaps i =
    i >= M.stages a
    ||
    let ca = M.connection a i and cb = M.connection b i in
    let rec labels x =
      x = per
      ||
      let afx = C.f ca x and agx = C.g ca x in
      let bfx = C.f cb x and bgx = C.g cb x in
      min afx agx = min bfx bgx
      && max afx agx = max bfx bgx
      && labels (x + 1)
    in
    labels 0 && gaps (i + 1)
  in
  gaps 1

(* Fits a 63-bit int literal; odd, so multiplication permutes. *)
let mult = 0x2545f4914f6cdd1d

let mix h k =
  let h = (h + k) * mult in
  h lxor (h lsr 29)

let structural_hash g =
  let module M = Mineq.Mi_digraph in
  let module C = Mineq.Connection in
  let per = M.nodes_per_stage g in
  let h = ref (mix (M.width g) (M.stages g)) in
  for i = 1 to M.stages g - 1 do
    let c = M.connection g i in
    for x = 0 to per - 1 do
      let fx = C.f c x and gx = C.g c x in
      let lo = if fx <= gx then fx else gx and hi = if fx <= gx then gx else fx in
      h := mix !h (lo lor (hi lsl 20))
    done
  done;
  (* Land in Hashtbl's expected non-negative range. *)
  !h land max_int

let digest_key g = Digest.string (Mineq.Spec_io.to_string g)

module H = Hashtbl.Make (struct
  type t = Mineq.Mi_digraph.t

  let equal = structural_equal

  let hash = structural_hash
end)

module FH = Hashtbl.Make (struct
  type t = Mineq.Fingerprint.t

  let equal = Mineq.Fingerprint.equal

  let hash = Mineq.Fingerprint.hash
end)

type keying = Structural | Fingerprint

let keying_name = function Structural -> "structural" | Fingerprint -> "fingerprint"

(* Lock striping: a probe touches one shard mutex chosen by the key
   hash, so concurrent workers probing different networks never
   contend.  Counters are per shard, mutated under the shard lock and
   summed on read.

   Single flight: a miss stores a [Pending] cell under the key before
   it computes (outside the lock).  A concurrent probe of the same key
   finds the cell and waits on its condition (with the shard mutex)
   until the computing probe stores [Done] and broadcasts; it then
   counts a hit.  So misses equal the distinct keys computed, and
   every key is computed once.  If the compute raises, its cell is
   withdrawn and the waiters re-probe, one of them computing in turn. *)

type 'a slot = Done of 'a | Pending of Condition.t

type 'a table = S of 'a slot H.t | F of 'a slot FH.t

type 'a shard = {
  table : 'a table;
  m : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable pending : int;  (** [Pending] cells in [table] *)
  mutable dup_computes : int;
}

let shard_count = 16 (* power of two: shard index is a mask of the hash *)

type 'a t = { keying : keying; shards : 'a shard array }

let create ?(size = 64) ?(keying = Structural) () =
  { keying;
    shards =
      Array.init shard_count (fun _ ->
          let cap = max 1 (size / shard_count) in
          let table = match keying with Structural -> S (H.create cap) | Fingerprint -> F (FH.create cap) in
          { table; m = Mutex.create (); hits = 0; misses = 0; pending = 0; dup_computes = 0 })
  }

let keying t = t.keying

let key_hash t g =
  match t.keying with
  | Structural -> structural_hash g
  | Fingerprint -> Mineq.Fingerprint.hash (Mineq.Fingerprint.of_network g)

let shard t g = t.shards.(key_hash t g land (shard_count - 1))

(* The single-flight protocol over one shard's table, instantiated per
   keying so the hit path stays one lock and one probe. *)
module Flight (T : Hashtbl.S) = struct
  (* Entered with [s.m] held; releases it before returning or raising. *)
  let rec probe s (tbl : 'a slot T.t) k g f =
    match T.find_opt tbl k with
    | Some (Done v) ->
        s.hits <- s.hits + 1;
        Mutex.unlock s.m;
        v
    | Some (Pending c) ->
        Condition.wait c s.m;
        probe s tbl k g f
    | None -> (
        s.misses <- s.misses + 1;
        let c = Condition.create () in
        T.replace tbl k (Pending c);
        s.pending <- s.pending + 1;
        Mutex.unlock s.m;
        (* Settle our cell, unless [reset] dropped it meanwhile; a
           value some other probe stored since then makes ours a
           duplicate compute. *)
        let settle stored =
          Mutex.lock s.m;
          (match T.find_opt tbl k with
          | Some (Pending c') when c' == c -> (
              s.pending <- s.pending - 1;
              match stored with Some v -> T.replace tbl k (Done v) | None -> T.remove tbl k)
          | Some (Done _) when Option.is_some stored -> s.dup_computes <- s.dup_computes + 1
          | Some _ | None -> ());
          Condition.broadcast c;
          Mutex.unlock s.m
        in
        match f g with
        | v ->
            settle (Some v);
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            settle None;
            Printexc.raise_with_backtrace e bt)

  let find_or_compute s tbl k g f =
    Mutex.lock s.m;
    probe s tbl k g f
end

module SF = Flight (H)
module FF = Flight (FH)

let find_or_compute t g f =
  let s = shard t g in
  match s.table with
  | S tbl -> SF.find_or_compute s tbl g g f
  | F tbl ->
      (* [of_network] memoises on the record, so hash and probe share
         one refinement pass. *)
      FF.find_or_compute s tbl (Mineq.Fingerprint.of_network g) g f

(* Export / import -------------------------------------------------

   The serving layer's snapshots need a point-in-time view of every
   entry.  Grabbing the shard locks one at a time would interleave
   with concurrent stores (an entry added to shard 3 while shard 7 is
   being copied appears or not depending on timing); [export] instead
   holds {e all} shard locks (acquired in index order, so two
   concurrent exports cannot deadlock) for the duration of the copy —
   a consistent cut, cheap because copying is proportional to the
   entry count, not the compute time behind it. *)

type 'a entry =
  | Skey of Mineq.Mi_digraph.t * 'a
  | Fkey of Mineq.Fingerprint.t * 'a

let export t =
  Array.iter (fun s -> Mutex.lock s.m) t.shards;
  let acc = ref [] in
  Array.iter
    (fun s ->
      match s.table with
      | S tbl -> H.iter (fun k -> function Done v -> acc := Skey (k, v) :: !acc | Pending _ -> ()) tbl
      | F tbl -> FH.iter (fun k -> function Done v -> acc := Fkey (k, v) :: !acc | Pending _ -> ()) tbl)
    t.shards;
  for i = Array.length t.shards - 1 downto 0 do
    Mutex.unlock t.shards.(i).m
  done;
  Array.of_list !acc

let fold f init t = Array.fold_left f init (export t)

let import t entries =
  let adopted = ref 0 in
  Array.iter
    (fun e ->
      match (e, t.keying) with
      | Skey (g, v), Structural -> (
          let s = t.shards.(structural_hash g land (shard_count - 1)) in
          Mutex.lock s.m;
          (match s.table with
          | S tbl -> if not (H.mem tbl g) then (H.add tbl g (Done v); incr adopted)
          | F _ -> ());
          Mutex.unlock s.m)
      | Fkey (k, v), Fingerprint -> (
          let s = t.shards.(Mineq.Fingerprint.hash k land (shard_count - 1)) in
          Mutex.lock s.m;
          (match s.table with
          | F tbl -> if not (FH.mem tbl k) then (FH.add tbl k (Done v); incr adopted)
          | S _ -> ());
          Mutex.unlock s.m)
      | Skey _, Fingerprint | Fkey _, Structural -> ())
    entries;
  !adopted

let sum_shards t f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards

let hits t = sum_shards t (fun s -> s.hits)

let misses t = sum_shards t (fun s -> s.misses)

let dup_computes t = sum_shards t (fun s -> s.dup_computes)

let table_length = function S tbl -> H.length tbl | F tbl -> FH.length tbl

let size t =
  sum_shards t (fun s ->
      Mutex.lock s.m;
      let n = table_length s.table - s.pending in
      Mutex.unlock s.m;
      n)

let hit_rate t =
  let h = hits t and m = misses t in
  let total = h + m in
  if total = 0 then nan else float_of_int h /. float_of_int total

let reset t =
  Array.iter
    (fun s ->
      Mutex.lock s.m;
      (match s.table with S tbl -> H.reset tbl | F tbl -> FH.reset tbl);
      s.hits <- 0;
      s.misses <- 0;
      s.pending <- 0;
      s.dup_computes <- 0;
      Mutex.unlock s.m)
    t.shards
