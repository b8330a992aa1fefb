(** Serialization of intermediate pipeline artifacts.

    {!Nfactor.Model_io} already defines the interchange encoding for
    models (the refine artifact); this module adds the same-style
    s-expression serializers for the remaining persistable stage
    artifacts: the canonical program, the StateAlyzer classification,
    the slice sets, and the exploration result (paths + stats).

    Statement-id bearing artifacts (slices, path traces) are only
    meaningful relative to a specific canonical program text;
    {!Manager} guarantees this by keying every artifact on the
    fingerprint chain rooted at the canonical text, and
    [Extract.canonical_stage] makes statement numbering a pure function
    of that text. Decoders raise {!Nfactor.Model_io.Parse_error} on
    malformed input; the manager treats any decoder exception as a
    cache miss. *)

open Symexec

val program_to_string : Nfl.Ast.program -> string
(** Canonical text (pretty-printed source). *)

val program_of_string : string -> Nfl.Ast.program
(** Re-parse; statement ids are deterministic in the text. *)

val classes_to_string : Statealyzer.Varclass.t -> string

val classes_of_string : canon:Nfl.Ast.program -> string -> Statealyzer.Varclass.t
(** [canon] rebuilds the (unserialized) canonical loop body. *)

val slices_to_string : Nfactor.Extract.slices -> string

val slices_of_string : canon:Nfl.Ast.program -> string -> Nfactor.Extract.slices
(** [canon] rebuilds the sliced loop body from the union ids. *)

val paths_to_string : Explore.path list * Explore.stats -> string

val paths_of_string : string -> Explore.path list * Explore.stats
(** Terms go through {!Nfactor.Model_io}'s term table and re-intern
    through the smart constructors, exactly like model documents; the
    stats are the recorded exploration's. *)

val analysis_to_string :
  Analysis.Lint.report * Analysis.Minimize.outcome * Analysis.Lint.report -> string
(** The analyze-pass artifact: pre-minimization lint report, the
    minimization outcome (original + minimized models and rewrite
    counters), and the lint report of the minimized table. The two
    models share one {!Nfactor.Model_io} term table. *)

val analysis_of_string :
  string -> Analysis.Lint.report * Analysis.Minimize.outcome * Analysis.Lint.report
(** Models re-intern through the shared term table; witness packets
    rebuild field-by-field. *)
