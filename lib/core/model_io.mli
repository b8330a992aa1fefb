(** Model serialization — the vendor-to-operator interchange format
    from the paper's deployment story ("run [NFactor] on their
    proprietary code and provide only the resultant models").
    S-expression based, versioned, with a total parser. *)

open Symexec

type sexp = Atom of string | List of sexp list

exception Parse_error of string

(** {1 Generic s-expressions} *)

val sexp_to_string : sexp -> string

val parse_sexp : string -> sexp
(** @raise Parse_error on malformed input. *)

val int_atom : string -> int
(** @raise Parse_error when the atom is not an integer. *)

val bool_atom : string -> bool
(** @raise Parse_error when the atom is not [true] or [false]. *)

(** {1 Component encoders (exposed for testing and tooling)} *)

val sexp_of_value : Value.t -> sexp
val value_of_sexp : sexp -> Value.t

val binop_name : Nfl.Ast.binop -> string
val binop_of_name : string -> Nfl.Ast.binop
(** @raise Parse_error on an unknown operator name. *)

(** {1 The term table}

    One codec for every document that holds terms: models and the
    pipeline's artifacts. A document carries one topologically ordered
    [(terms def ...)] table in which each distinct term appears once;
    every expression position elsewhere is an index into it, so a
    document costs O(distinct terms), not O(tree size). *)

type term_enc

val term_enc : unit -> term_enc
(** A fresh, empty table. *)

val eref : term_enc -> Sexpr.t -> sexp
(** The index atom of a term, adding its definition (children first)
    on first use. *)

val dref : term_enc -> Sexpr.dict_state -> sexp
(** A dictionary snapshot whose keys and values are table indices. *)

val terms_sexp : term_enc -> sexp
(** The [(terms def ...)] clause: every definition added so far. *)

type term_dec

val term_dec : sexp list -> term_dec
(** Rebuild a table from its definitions (the body of [(terms ...)]),
    left to right through the interning smart constructors: terms are
    re-interned in the reader's table.
    @raise Parse_error on a malformed definition or a reference to a
    definition that is not earlier in the table. *)

val tref : term_dec -> sexp -> Sexpr.t
(** Resolve an index atom. @raise Parse_error when out of range. *)

val dict_of_ref : term_dec -> sexp -> Sexpr.dict_state
(** Inverse of {!dref}. *)

val sexp_of_literal : term_enc -> Solver.literal -> sexp
(** [(+ i)] or [(- i)] for a literal over the term at index [i]. *)

val literal_of_sexp : term_dec -> sexp -> Solver.literal

(** {1 Whole models} *)

val model_fields : term_enc -> Model.t -> sexp list
(** A model's [(name ...) (pkt-var ...) (cfg-vars ...) (ois-vars ...)
    (entries ...)] clauses, with expressions as indices into the
    table; documents that hold several models share one table. *)

val model_of_fields : term_dec -> sexp list -> Model.t
(** Inverse of {!model_fields}. *)

val version : int

val to_string : Model.t -> string
(** Serialize to the interchange text (always the current
    {!version}). *)

val of_string : string -> Model.t
(** Parses every version up to the current one.
    @raise Parse_error on malformed or unsupported input. *)
