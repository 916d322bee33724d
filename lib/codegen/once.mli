(** A value built on first use, safe to force from several domains at
    once.  OCaml 5's [Lazy.force] is not: two domains forcing one lazy
    value race.  The serve layer's executors share cached models, so
    every lazily built stage of a compiled model is one of these. *)

type 'a t

val make : (unit -> 'a) -> 'a t

val force : 'a t -> 'a
(** The value, building it on the first call.  Concurrent first calls
    build it exactly once: the rest wait for it and get the same
    (physically equal) value.  Once built, a call takes no lock.  If the
    build raises, nothing is stored and the exception propagates; the
    next call builds again. *)
