(** Topological ordering and layering of acyclic graphs. *)

val sort : Digraph.t -> int list
(** Kahn's algorithm; nodes before their successors.
    @raise Invalid_argument if the graph has a cycle. *)

val is_acyclic : Digraph.t -> bool

val layers : Digraph.t -> int list list
(** Partition an acyclic graph into levels: layer 0 holds nodes with no
    predecessors, layer k+1 holds nodes whose predecessors all sit in layers
    <= k.  All nodes of a layer may execute in parallel, so the layer count
    is the critical-path length used to bound equation-system-level
    parallelism (paper §2.5.1).
    @raise Invalid_argument if the graph has a cycle. *)
