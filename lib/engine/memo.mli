(** Memo cache for per-network analysis results, sharded for parallel
    probes.

    Two keyings are available, chosen at {!create}:

    - {!Structural} (the default): a cheap multiply-xor hash over the
      unordered child pair of every node (no serialization, no MD5)
      with full structural equality on bucket collisions, so two
      networks share an entry exactly when they are the same labelled
      digraph ({!Mineq.Mi_digraph.equal} — insensitive to the
      non-canonical [(f, g)] decomposition, but not to isomorphism).
    - {!Fingerprint}: keys on the canonical {!Mineq.Fingerprint}, so
      all isomorphic networks share one entry and a relabelled probe
      hits the cache the structural keying would miss.  {b Only sound
      for iso-invariant computations} (verdicts depending only on the
      isomorphism class, like [Equivalence.by_characterization]'s
      [equivalent]/[banyan] fields): a WL fingerprint collision —
      never observed in the soundness suite but not impossible —
      silently merges two classes' entries, and any cached value that
      mentions labels would be wrong for other members of the class.

    The cache is domain-safe and lock-striped across {!shard_count}
    shards selected by the key hash: workers probing different
    networks take different locks and never contend.  The compute
    function runs outside the lock, single-flight: the first probe to
    miss a key marks it in flight, and concurrent probes of that key
    wait for its value instead of computing it again.

    Hit/miss/duplicate-compute counters are exposed for the benches
    (summed over shards). *)

type 'a t

type keying = Structural | Fingerprint

val keying_name : keying -> string

val shard_count : int
(** Number of lock stripes (a power of two). *)

val create : ?size:int -> ?keying:keying -> unit -> 'a t
(** [keying] defaults to {!Structural}. *)

val keying : 'a t -> keying

val structural_hash : Mineq.Mi_digraph.t -> int
(** The shard/bucket hash: folds [width], [stages] and every gap's
    unordered child pairs.  Equal networks (in the sense of
    {!structural_equal}) hash equally. *)

val structural_equal : Mineq.Mi_digraph.t -> Mineq.Mi_digraph.t -> bool
(** Pointwise arc-multiset equality — the same relation as
    {!Mineq.Mi_digraph.equal}, computed without allocation. *)

val digest_key : Mineq.Mi_digraph.t -> string
(** The previous key: MD5 of the canonical spec text.  Kept for the
    agreement tests and external tooling; not used by the cache. *)

val find_or_compute : 'a t -> Mineq.Mi_digraph.t -> (Mineq.Mi_digraph.t -> 'a) -> 'a
(** Cached value for the network, computing (and storing) on miss.
    A probe that finds the key in flight on another domain blocks
    until that value is stored and counts a hit, so {!misses} equals
    the number of computes.  If the compute raises, the exception
    propagates, nothing is stored and a waiting probe computes in
    turn.  The compute function must not probe the same key of the
    same cache: it would wait on itself. *)

val hits : 'a t -> int

val misses : 'a t -> int

val dup_computes : 'a t -> int
(** Computes whose value was discarded because another probe had
    already stored the key.  Only a {!reset} during a compute can
    cause one; stays 0 otherwise. *)

val size : 'a t -> int
(** Stored entries (keys in flight excluded). *)

val hit_rate : 'a t -> float
(** [hits / (hits + misses)]; [nan] before any probe. *)

val reset : 'a t -> unit
(** Drop all entries, in-flight keys included, and zero the counters. *)

(** {1 Export / import}

    A point-in-time view of the cache for the serving layer's disk
    snapshots ([Mineq_serve.Snapshot]).  Entries carry their key in
    the keying the cache was created with. *)

type 'a entry =
  | Skey of Mineq.Mi_digraph.t * 'a  (** a {!Structural} entry *)
  | Fkey of Mineq.Fingerprint.t * 'a  (** a {!Fingerprint} entry *)

val export : 'a t -> 'a entry array
(** Every stored entry, copied under {e all} shard locks at once
    (acquired in index order) — a consistent cut: an entry either
    predates the export and appears, or postdates it and doesn't,
    never a mix that depends on shard visit order.  Entry order is
    unspecified. *)

val fold : ('acc -> 'a entry -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over {!export}'s consistent cut. *)

val import : 'a t -> 'a entry array -> int
(** Adopt entries whose key kind matches the cache's keying, skipping
    keys already present (resident entries win) and entries of the
    other kind.  Returns the number adopted.  Neither hits nor misses
    are counted. *)
