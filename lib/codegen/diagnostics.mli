(** Model diagnostics from the dependency analysis.

    Paper §2.5.1: "the analysis and the visualization of dependencies are
    very helpful tools for the model implementor.  It is easy to find
    missing dependencies or dependencies that should not be there.  Also,
    uninteresting parts of the problem can be removed at an early stage
    so that no computing power is wasted."  This module turns the
    dependency graph into those hints. *)

type report = {
  isolated : string list;
      (** states with no dependencies in either direction (suspicious:
          often a missing coupling) *)
  sources : string list;
      (** states nothing depends on them {e from} — driven inputs such as
          a prescribed rotation *)
  sinks : string list;
      (** states that influence nothing — pure observers; they can leave
          the hot loop without changing any other trajectory *)
  largest_scc_share : float;
      (** fraction of the equations inside the largest SCC; near 1.0
          means system-level partitioning cannot help (the bearing),
          small means it can (the plant) *)
}

val analyse : Om_lang.Flat_model.t -> report

val pp : report Fmt.t
