(** Streaming hash-bucketed isomorphism census.

    Generates a spec stream from a root seed, fingerprints it through
    the work-stealing pool in bounded-memory chunks, and buckets by
    {!Mineq.Fingerprint} so the {!Mineq.Iso_min} search only runs
    within a bucket.  Each spec's confirmation against its bucket's
    first class runs in the pool too; only fingerprint collisions
    search further, serially.  Memory is O(classes + chunk size)
    regardless of how many specs stream through, and every count in
    the {!summary} is invariant under [--jobs] (chunking depends on
    the spec count alone; specs are generated from per-index derived
    RNG streams; merging runs in index order). *)

type generator =
  | Random_links  (** uniformly random link permutations per gap *)
  | Pipid  (** random index-digit permutations per gap (PIPID) *)
  | Affine  (** random independent (affine) connections per gap *)

val all_generators : generator list

val generator_name : generator -> string

val generator_of_string : string -> generator option
(** Inverse of {!generator_name}; [None] on unknown names. *)

type class_row = {
  representative : Mineq.Mi_digraph.t;
  first_index : int;  (** spec index of the first member seen *)
  count : int;
  baseline : bool;  (** is this the Baseline's class? *)
}

type summary = {
  generator : generator;
  n : int;
  specs : int;
  classes : class_row list;  (** first-appearance order *)
  buckets : int;  (** distinct fingerprints seen *)
  collisions : int;
      (** classes beyond one per bucket — fingerprint collisions the
          within-bucket search resolved *)
}

val run_in : Pool.t -> root:int -> n:int -> specs:int -> generator:generator -> summary
(** Stream [specs] networks of [n] stages from [generator] through an
    existing pool.  Raises [Invalid_argument] for [n < 2] or a
    negative spec count. *)

val run : jobs:int -> root:int -> n:int -> specs:int -> generator:generator -> summary
(** Bracketed {!run_in} on a fresh pool. *)
