(** Undirected, simple, positively-weighted graphs with dense integer nodes.

    This is the substrate every other library builds on: nodes are
    [0 .. n-1], edges are unordered pairs with a strictly positive weight.
    The structure is immutable once created; "removing" edges (to model
    failures) produces a view through {!val:Failureable} helpers in client
    code, or a fresh graph through {!without_edges}. *)

type t

type edge = { u : int; v : int; w : float }
(** Canonical representation has [u < v]. *)

val create : n:int -> (int * int * float) list -> t
(** [create ~n edges] builds a graph with [n] nodes.  Raises
    [Invalid_argument] on: out-of-range endpoints, self loops, duplicate
    edges (in either orientation), non-positive or non-finite weights. *)

val unweighted : n:int -> (int * int) list -> t
(** All weights 1.0. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges. *)

val neighbours : t -> int -> int array
(** Neighbours in increasing id order.  The returned array is owned by the
    graph and must not be mutated. *)

val neighbour_edges : t -> int -> int array
(** Edge indices parallel to {!neighbours}: [(neighbour_edges g v).(k)] is
    [edge_index g v (neighbours g v).(k)].  Owned by the graph; must not
    be mutated.  Hot loops read it instead of calling {!edge_index} per
    neighbour. *)

val degree : t -> int -> int

val max_degree : t -> int

val has_edge : t -> int -> int -> bool
(** Whether [u] and [v] are adjacent; [false] when either id is out of
    range.  O(log degree): a range check and a binary search of [u]'s
    sorted adjacency row. *)

val weight : t -> int -> int -> float
(** Weight of the edge between two adjacent nodes.  Raises [Not_found] if
    they are not adjacent or either id is out of range.  O(log degree). *)

val edge_index : t -> int -> int -> int
(** Dense index in [\[0, m)] of the edge between two adjacent nodes.
    Stable across both orientations.  Raises [Not_found] if they are not
    adjacent or either id is out of range.  O(log degree), like
    {!has_edge}. *)

val edge : t -> int -> edge
(** Edge by dense index. *)

val edges : t -> edge array
(** All edges, canonical orientation, in index order.  Owned by the graph. *)

val fold_edges : (int -> edge -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over (index, edge). *)

val iter_edges : (int -> edge -> unit) -> t -> unit

val total_weight : t -> float

val without_edges : t -> (int * int) list -> t
(** Fresh graph with the listed edges removed.  Unknown edges are an
    [Invalid_argument]. *)

val induced : t -> int list -> t * int array
(** [induced g nodes] is the subgraph induced by [nodes] (deduplicated),
    together with the mapping from new ids to original ids. *)

val equal_structure : t -> t -> bool
(** Same node count and same weighted edge set.  A graph is compared
    with itself in O(1), so per-batch checks against the graph an image
    was compiled from cost nothing. *)

val pp : Format.formatter -> t -> unit
