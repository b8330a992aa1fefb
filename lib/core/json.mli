(** A minimal JSON emitter shared by every [--json] surface: engine,
    shard and chain counters, lint reports, invariant outcomes and
    pass traces.

    Rendering is one line with [", "] between members and [": "] after
    keys ([{"k": 1, "l": [1, 2]}]), so line-oriented greps such as
    ["scan_hits": 0] stay stable. Strings are JSON-escaped, never
    OCaml-escaped: the output is pure ASCII and always parses. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** three decimals; [nan] and infinities print [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in the given order *)

val to_string : t -> string

val quote : string -> string
(** A JSON string literal. Quote, backslash and control characters
    take their short or [\u00XX] escapes; well-formed UTF-8 sequences
    become [\uXXXX] escapes (surrogate pairs above U+FFFF); any other
    byte [b] >= 0x80 is read as Latin-1 and becomes [\u00XX]. *)
