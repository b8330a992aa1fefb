(** Model → dataplane compiler: partial evaluation against a concrete
    config store plus a decision structure over the surviving entries.

    Compilation is sound, never lossy: every transformation preserves
    the reference semantics of {!Nfactor.Model_interp} exactly.

    - {b Static config}: entries whose (packet-free) config literals
      are false under the config store are dropped; the rest never
      re-check config at packet time. Degenerate config literals that
      mention the packet stay as per-packet tests.
    - {b Literal slots}: each distinct match literal (polarity-signed
      term id) compiles once to a closure and is assigned a cache slot,
      so the engine evaluates a literal at most once per packet no
      matter how many entries test it.
    - {b Shared subterms}: terms are hash-consed, so the compiler
      counts references across everything the plan evaluates and gives
      each compound subterm referenced from two or more places (flow-key
      tuples, dict probes shared by dispatch, literals and updates) a
      per-step value cache keyed on the store's logical clock. All
      evaluation within one step reads the pre-state, so the memo is
      semantically invisible; swallowable evaluation failures are
      cached and re-raised identically.
    - {b Decision structure}: the live entry table compiles into a DAG
      of dispatch nodes. {e State nodes} probe one per-flow state value
      (table base + key expression, recognized by
      {!Nfactor.Fsm.state_key_of_literal}) and branch on its value
      class — this is the per-flow FSM level: the flow's current state
      value selects the branch. {e Expression nodes} branch on a
      packet/store expression compared against static constants, as a
      hash on equality constants or, when ordered comparisons ([<],
      [<=], [>], [>=], [!=] over integers) are present, as an interval
      split over the sorted cuts. {e Truthiness nodes} branch on an
      arbitrary atom's boolean value. Every class decides each node
      literal exactly as {!Nfactor.Model_interp.literal_holds} would
      (including the false-on-unresolved rule, via explicit
      unresolved/absent/non-int/non-bool classes), so an entry dropped
      from a branch could not have matched there. Leaves keep the
      original entry order with only undecided literals left to test —
      first-match-wins survives by construction.
    - {b Residual scan}: entries carrying [residual_match] literals are
      never dispatched; they ride through every branch into every leaf
      and are tested in order (the surviving ordered scan). *)

open Symexec

type matcher = Flowstate.t -> Packet.Pkt.t -> bool
type valfn = Flowstate.t -> Packet.Pkt.t -> Value.t

type setter = Packet.Pkt.t -> Value.t -> Packet.Pkt.t

type cupdate =
  | CSet of string * valfn
  | CDict of string * (valfn * valfn option) list
      (** chronological inserts/deletes, as in {!Nfactor.Model.Dict_ops} *)

type centry = {
  eidx : int;  (** index of the entry in the source model *)
  scan : bool;  (** residual-match entry: resolved by scan, not dispatch *)
  slots : int array;  (** undecided distinct-literal cache slots, match order *)
  emit : (setter * valfn) list array;  (** compiled [Forward] snapshots; [||] = drop *)
  updates : (cupdate * bool) list;
      (** resolve all in order (exception parity); commit only flagged
          ones — the last update per variable, as the reference
          interpreter's [Smap.add] fold makes earlier same-variable
          updates unobservable *)
  uslots : int;
      (** resolved values [updates] produces, in resolve order — sizes
          the engine's reusable scratch buffer *)
}

(** Value dispatch within a node: hash on equality constants, or
    interval split over sorted integer cuts. [VRange.classes] has
    [2k+1] slots for [k] cuts — even positions are the open gaps
    between consecutive cuts (and the two unbounded ends), odd
    positions the cuts themselves — each holding a child index. *)
type vdispatch =
  | VHash of { table : (Value.t, int) Hashtbl.t; other : int }
  | VRange of { cuts : int array; classes : int array; non_int : int }

(** One dispatch step. Child indices point into [children]; the
    labeled classes route evaluation failures exactly like the
    reference evaluator (unresolved reads and type errors make a
    literal false, whatever its polarity). *)
type dnode =
  | Leaf of centry array  (** ordered candidates: test remaining slots, first wins *)
  | Dstate of {
      base : string;  (** per-flow table name *)
      key : valfn;  (** flow key expression *)
      key_src : Sexpr.t;  (** the key's source term, for link-time analysis *)
      vdis : vdispatch;  (** on the stored value *)
      absent : int;  (** table exists, key absent *)
      unres : int;  (** table missing / key evaluation raised *)
      children : dnode array;
    }
  | Dexpr of {
      expr : valfn;
      src : Sexpr.t;  (** the dispatched term — lets {!Chainplan} partially
          evaluate this node when an upstream hop pins its packet reads *)
      vdis : vdispatch;
      unres : int;
      children : dnode array;
    }
  | Dbool of {
      expr : valfn;
      src : Sexpr.t;
      truthy : int;  (** [Bool true] or nonzero [Int] *)
      falsy : int;  (** [Bool false] or [Int 0] *)
      nonbool : int;
      unres : int;
      children : dnode array;
    }

type node_counts = {
  n_state : int;  (** per-flow FSM dispatch nodes *)
  n_hash : int;  (** expression hash nodes *)
  n_range : int;  (** expression interval nodes *)
  n_bool : int;  (** truthiness nodes *)
  n_leaves : int;  (** distinct constructed leaves *)
}

type t = {
  model : Nfactor.Model.t;
  lit_fns : matcher array;  (** one evaluator per distinct literal slot *)
  root : dnode;  (** decision structure over the live entries *)
  live : int;  (** entries surviving static config evaluation *)
  live_idx : bool array;
      (** per source-model entry index: survived static config
          evaluation (length = [entry_count model]) *)
  shared : bool;
      (** compiled for read-only sharing across domains: the per-step
          value memo is omitted (see {!compile}) *)
  indexed : int;  (** live entries resolved through dispatch nodes *)
  scanned : int;  (** live entries only the ordered scan can resolve *)
  dropped_static : int;  (** entries removed because config is statically false *)
  nodes : node_counts;
  max_uslots : int;  (** largest [centry.uslots], sizing the engine scratch *)
}

val compile : ?shared:bool -> Nfactor.Model.t -> config:Nfactor.Model_interp.store -> t
(** [config] is the concrete store the model runs under (the
    extraction-time initial store); only cfgVar values are consulted
    statically, oisVars stay dynamic.

    {b Mutability audit.} A compiled plan is read-only at packet time
    with one exception: the per-step value memo wrapped around shared
    compound subterms caches [(store, clock) → value] in closure refs.
    [shared:true] (default [false]) omits that memo, making the whole
    plan — literal closures, dispatch nodes, hash tables — immutable
    after compilation, so one plan can be stepped concurrently by any
    number of engines on different domains. The per-packet literal
    verdict cache is unaffected (it lives in each {!Engine.t}). The
    cost is re-evaluating subterms shared between dispatch keys and
    literals once per use instead of once per packet. *)

val pp_plan : Format.formatter -> t -> unit
(** One-line summary: live/dispatched/dropped entries and node shape. *)

(** {1 Exposed for tests} *)

val compile_expr : pkt_var:string -> Sexpr.t -> valfn
(** Compiled evaluation, equal to {!Nfactor.Model_interp.eval} on every
    input (including its [Unresolved]/[Type_error] behavior). *)

