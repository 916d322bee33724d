(** Minimal JSON values for the newline-delimited serve protocol.

    The serve layer speaks NDJSON (one JSON value per line) on stdin or
    a Unix-domain socket; the container ships no JSON library, so this
    is a small self-contained codec: the full value grammar (objects,
    arrays, strings with escapes, numbers, literals), compact one-line
    printing with deterministic field order (objects print in
    construction order), and total accessors returning [option].

    Numbers distinguish {!Int} from {!Num} so counters print as
    integers; floats print with the shortest representation that
    round-trips ([%g] when exact, [%.17g] otherwise), which keeps
    records byte-stable across runs of the same computation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string
(** Raised by {!of_string} on malformed input, with a position-bearing
    message. *)

val of_string : string -> t
(** Parse one JSON value (surrounding whitespace allowed, nothing else).
    Integral numbers within [int] range parse as {!Int}, everything
    else as {!Num}.  Arrays and objects may nest 512 deep; a deeper
    value is malformed input.
    @raise Error on malformed input. *)

val to_string : t -> string
(** Compact single-line rendering (no newlines — safe for NDJSON). *)

(** {1 Accessors} — total, [None] on shape mismatch. *)

val member : t -> string -> t option
(** Field of an {!Obj} ([None] on missing field or non-object). *)

val to_str : t -> string option

val to_float : t -> float option
(** {!Int} and {!Num} both convert. *)

val to_int : t -> int option
(** {!Int}, or a {!Num} that is exactly integral. *)

val to_list : t -> t list option
