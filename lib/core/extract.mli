(** Algorithm 1: NF program slicing and model synthesis, end to end.

    Packet slice (lines 1-4) → StateAlyzer (5) → state slice (6-9) →
    symbolic path exploration of the slice union (10) → refinement of
    paths into model entries (11-16). Scalar configuration stays
    symbolic so one extraction covers every configuration (Figure 6);
    structured configuration (lists) stays concrete. *)

open Symexec

type result = {
  model : Model.t;
  classes : Statealyzer.Varclass.t;
  program : Nfl.Ast.program;  (** canonical program the model came from *)
  pkt_slice : int list;
  state_slice : int list;
  union_slice : int list;
  sliced_body : Nfl.Ast.block;  (** loop body restricted to the slice *)
  paths : Explore.path list;
  stats : Explore.stats;
  stage_times : (string * float) list;
      (** wall-clock seconds per pipeline stage, in pipeline order:
          canonicalize, classify, slice, explore, refine *)
  solver_memo : Solver.memo;
      (** the exploration's verdict cache; pass to further explorations
          of the same program (e.g. the unsliced original) to reuse
          path-condition verdicts *)
}

val ensure_canonical : Nfl.Ast.program -> Nfl.Ast.program
(** Normalize to canonical single-loop form unless already there. *)

val symbolic_env :
  classes:Statealyzer.Varclass.t ->
  init:Value.t Interp.Smap.t ->
  pkt_var:string ->
  Explore.sval Explore.Smap.t
(** The extraction environment: symbolic packet, symbolic scalar
    configs and output-impacting state, concrete everything else. *)

type lit_class = L_config | L_flow | L_state | L_other

val classify_literal :
  pkt_var:string ->
  cfg_vars:string list ->
  ois_vars:string list ->
  Solver.literal ->
  lit_class
(** Algorithm 1 lines 12-14: state atoms may mention packet fields
    (prefix [pkt_var ^ "."]), flow atoms may mention config constants;
    only pure-config atoms split tables. Literals classifying [L_other]
    are recorded on the entry's [residual_match]. *)

(** {1 Pipeline stages}

    Each Algorithm-1 stage as a pure function of its upstream
    artifacts. {!run} composes them without caching; the pass pipeline
    in [lib/pipeline] composes the same functions with content-
    addressed fingerprints and artifact caching. *)

val canonical_stage : Nfl.Ast.program -> Nfl.Ast.program
(** {!ensure_canonical} followed by a pretty-print/parse round trip, so
    statement ids are a pure function of the canonical text and stay
    valid for artifacts reloaded from a cache in another session. *)

val classify_stage : Nfl.Ast.program -> Statealyzer.Varclass.t

type slices = {
  sl_pkt : int list;  (** packet slice (Algorithm 1 lines 1-4) *)
  sl_state : int list;  (** state slice (lines 6-9) *)
  sl_union : int list;
  sl_body : Nfl.Ast.block;  (** loop body restricted to the union *)
}

val sliced_body_of_union : Nfl.Ast.program -> int list -> Nfl.Ast.block
(** Recompute [sl_body] from the canonical program and the slice
    union (cached slices persist only the statement-id lists). *)

val slice_stage : Nfl.Ast.program -> Statealyzer.Varclass.t -> slices

val max_if_chain : Nfl.Ast.block -> int
(** Longest run of branches outside loops, each the statement executed
    right after the previous one — an upper bound on every
    {!Joins.chain_len} over the block, computed without a CFG. *)

val merge_policy_of :
  ?min_chain:int ->
  classes:Statealyzer.Varclass.t ->
  Nfl.Ast.block ->
  Explore.merge_policy option
(** Join-point merge policy for exploring a (sliced) loop body: merge
    at branches with a statement join point outside loop bodies, but
    only on diamond chains of at least [min_chain] (default 5)
    sequential branches — where the naive path count is exponential.
    Fold only branch atoms free of config/state symbols into [ite]
    guards (config splits stay separate entries, state predicates keep
    per-path concrete verdicts for refinement). [None] when no run of
    [min_chain] consecutive branches exists: merging could never fire,
    so the join analysis is skipped. *)

val explore_stage :
  ?config:Explore.config ->
  ?merge:bool ->
  memo:Solver.memo ->
  Nfl.Ast.program ->
  Statealyzer.Varclass.t ->
  slices ->
  Explore.path list * Explore.stats
(** [merge] (default [true]) explores under {!merge_policy_of}. *)

val refine_stage :
  name:string -> Statealyzer.Varclass.t -> Explore.path list -> Model.t

val assemble :
  model:Model.t ->
  classes:Statealyzer.Varclass.t ->
  program:Nfl.Ast.program ->
  slices:slices ->
  paths:Explore.path list ->
  stats:Explore.stats ->
  stage_times:(string * float) list ->
  solver_memo:Solver.memo ->
  result
(** Build the {!result} record from stage artifacts. *)

val run :
  ?config:Explore.config -> ?merge:bool -> name:string -> Nfl.Ast.program -> result
(** Run the whole pipeline (uncached stage composition). Accepts any
    Figure-4 structure (the program is canonicalized first). [merge]
    (default [true]) enables join-point path merging during
    exploration; disable it to reproduce the unmerged path
    enumeration. *)
