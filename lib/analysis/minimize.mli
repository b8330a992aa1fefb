(** Layer-2 table minimization: a superoptimizing rewriter over model
    entry tables.

    Four rewrite rules, each individually {e proof-validated} by the
    {!Imply} lattice (with the solver as fallback — refutations only)
    before it is applied:

    - delete entries whose match is unsatisfiable;
    - delete entries fully shadowed by an earlier entry;
    - widen matches by dropping literals implied by the rest of the
      entry, or whose excluded packets are proven to fire at an
      earlier entry anyway;
    - merge adjacent entries with identical actions whose matches
      differ in a single literal, replacing the pair with one entry
      whose match is the exact union (wildcard when the union covers
      the common region, otherwise one interval/disjunction literal).

    Rewrites compose — each preserves the table's exact semantics at
    the step it is applied — and the loop runs to a fixpoint. Widening
    is speculative: it is kept only when it buys strictly fewer
    entries (the fixpoint runs with and without the rule and the
    smaller table wins), because a dropped literal is usually the
    cheap early-exit check and losing it slows entry evaluation. A
    changed table is then gated end to end by {!gate} over a palette +
    random + flow-churn packet corpus: when the replay diverges (it
    never should), the {e original} model is returned with
    [verified = false] rather than an unproven rewrite. When no rule
    fired, the fixpoint returned the original entries and no gate
    runs. *)

open Nfactor

type outcome = {
  original : Model.t;
  minimized : Model.t;
  deleted_dead : int;  (** entries removed as unsatisfiable *)
  deleted_shadowed : int;  (** entries removed as fully shadowed *)
  merged : int;  (** adjacent-pair merges applied *)
  widened_literals : int;  (** match literals dropped by widening *)
  iterations : int;  (** fixpoint rounds until quiescence *)
  verified : bool;  (** the differential gate passed, or was not needed *)
  trials : int;
      (** packets in the gate corpus; [0] when the table was unchanged
          and no gate ran *)
}

val default_pkts : unit -> Packet.Pkt.t list
(** The gate corpus: testgen palette + 2000 random packets + flow
    churn streams. *)

val gate :
  store:Model_interp.store -> pkts:Packet.Pkt.t list -> Model.t -> Model.t -> bool
(** The differential gate: both tables run through [pkts] in lock step
    from [store] on the compiled dataplane ({!Nfactor_runtime.Engine});
    [true] when every packet's outputs agree and so do the final
    stores — the same two-part test as
    {!Nfactor.Equiv.model_differential}, on the faster executor. *)

val run :
  ?pkts:Packet.Pkt.t list -> store:Model_interp.store -> Model.t -> outcome
(** Minimize under the given initial store (used only by the final
    differential gate — every rewrite is proven symbolically). The
    output never has more entries than the input; an unchanged table
    is returned as the input model itself. *)

val reduction : outcome -> float
(** Fractional entry-count reduction, [0.0] when the input was empty. *)
