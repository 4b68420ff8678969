(** Constructive isomorphism between MI-digraphs.

    The paper's Theorem 3 proves existence of an isomorphism onto the
    Baseline; this module actually produces one — a per-stage
    bijection of node labels — via backtracking that exploits the
    stage structure, which is far faster than the generic
    {!Mineq_graph.Iso} search it is benchmarked against (ablation
    X1).  Nodes are mapped in BFS order, so every node but a component
    root follows a mapped neighbour; its only candidates are the at
    most two labels adjacent to that neighbour's image, tried in
    ascending order.  The search tree, and so the first mapping found,
    the [limit] failure points and {!automorphism_count}, are those of
    trying every label of the stage in ascending order. *)

type mapping = int array array
(** [mapping.(s).(x)] is the image label (stage [s+1], 0-based array)
    of node [x] of stage [s+1]. *)

val find : ?limit:int -> Mi_digraph.t -> Mi_digraph.t -> mapping option
(** An isomorphism from the first MI-digraph onto the second, or
    [None].  [limit] bounds backtracking nodes (0 = unlimited);
    raises [Failure] when exceeded. *)

val to_baseline : ?limit:int -> Mi_digraph.t -> mapping option
(** Isomorphism onto [Baseline.network n]. *)

val verify : Mi_digraph.t -> Mi_digraph.t -> mapping -> bool
(** Certificate check: every stage map is a bijection and every arc
    multiplicity is preserved in both directions. *)

val apply : Mi_digraph.t -> mapping -> Mi_digraph.t
(** Relabel the first network through the mapping; [verify g h m]
    implies [Mi_digraph.equal (apply g m) h]. *)

val automorphism_count : ?limit:int -> Mi_digraph.t -> int
(** Number of stage-respecting automorphisms (enumeration; small
    [n] only).  The Baseline on [n] stages has [2^(2^(n-1) - 1) *
    ...] — experimentally interesting; see the test suite. *)
