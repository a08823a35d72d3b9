(** Mutable binary min-heap keyed by float priorities.

    The simulator's event queue ([Pr_sim.Event]) is built on it.  Duplicate
    inserts of the same payload are allowed, so a consumer can delete
    lazily by skipping stale entries.  ([Pr_graph.Dijkstra] keeps its own
    indexed heap over node ids.) *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h priority payload] inserts an entry. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the entry with the smallest priority.  Ties are broken
    by insertion order (first inserted pops first), which keeps algorithms
    built on the heap deterministic. *)

val peek : 'a t -> (float * 'a) option

val clear : 'a t -> unit
