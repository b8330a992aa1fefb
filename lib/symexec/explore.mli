(** Bounded symbolic execution of NFL blocks, as a worklist engine.

    Explores every feasible path of a block under a symbolic
    environment: branches fork when the {!Solver} cannot decide them,
    loops unroll up to a bound, paths exceeding budgets are kept but
    marked truncated. Each completed path carries everything Algorithm
    1's refinement step needs: path condition, executed statements,
    emitted packets and the final symbolic store.

    Pending fork arms are scheduled on an explicit LIFO worklist and
    eagerly discharged against the incremental solver before being
    scheduled (infeasible sides are pruned without ever being
    interpreted). With a {!merge_policy}, states reaching a branch's
    CFG join point with compatible stores are folded into one state
    whose differing values become guarded [ite] summaries, so k
    sequential branches cost O(k) states instead of O(2^k) paths. *)

module Smap : Map.S with type key = string
module Imap : Map.S with type key = int

exception Unsupported of string
(** Raised on constructs outside the supported symbolic fragment
    (e.g. writes through symbolic list indices). *)

(** Symbolic runtime values. *)
type sval =
  | Scalar of Sexpr.t
  | Pktv of (string * Sexpr.t) list  (** packet as a field map *)
  | Dictv of Sexpr.dict_state
  | Listv of sval list

val pp_sval : Format.formatter -> sval -> unit

val sval_of_value : Value.t -> sval
(** Lift a concrete value into the symbolic domain (dictionaries become
    empty-base snapshots carrying their contents as writes). *)

val sym_pkt : string -> sval
(** Fully symbolic packet: field [f] is the symbol ["<name>.f"]. *)

type config = {
  loop_bound : int;  (** max iterations per loop statement per path *)
  max_paths : int;  (** exploration budget; hitting it sets [overflowed] *)
  max_steps : int;  (** per-path statement budget *)
}

val default_config : config
(** loop bound 2, 4096 paths, 20k steps per path. *)

type merge_policy = {
  mergeable_if : int -> bool;
      (** May a fork at this [If] statement's sid open a merge region?
          Typically [Joins.mergeable]: the branch has a statement
          join point and does not sit inside a loop body (loop
          iterations are distinct control locations once unrolled). *)
  admit_guard : Sexpr.t -> bool;
      (** May this branch atom be folded into an [ite] guard? Model
          extraction rejects atoms over config/state symbols so entry
          tables keep concrete per-path verdicts for them. *)
}
(** Policy gate for join-point path merging. Two states merge when they
    sit at the same continuation (a branch's join point), agree on
    loop-iteration counts, truncation and send count, their path
    conditions diverge on complementary head literals (keeping merged
    path conditions mutually disjoint), and every diverging atom passes
    [admit_guard]. Differing store and sent-packet values fold into
    guarded {!Sexpr.mk_ite} summaries. *)

type path = {
  pc : Solver.literal list;  (** path condition, in decision order *)
  trace : int list;
      (** executed statement ids, ascending and distinct: a merged
          state executed the union of its arms' statements *)
  sends : (string * Sexpr.t) list list;  (** snapshots of packets sent *)
  env : sval Smap.t;  (** final symbolic store *)
  truncated : bool;  (** a loop or step budget was hit *)
}

type stats = {
  mutable paths : int;
  mutable truncated_paths : int;
  mutable decides : int;  (** branch decisions that consulted the solver *)
  mutable solver_calls : int;  (** actual decision-procedure invocations *)
  mutable solver_cache_hits : int;  (** checks answered from the memo/context *)
  mutable solver_cache_misses : int;  (** checks that ran the procedure *)
  mutable solver_time_s : float;  (** CPU time inside the decision procedure *)
  mutable forks : int;
  mutable max_fork_depth : int;  (** deepest path condition at a fork *)
  mutable fork_depths : int Imap.t;  (** pc depth at fork -> fork count *)
  mutable overflowed : bool;  (** [max_paths] reached; enumeration incomplete *)
  mutable merges : int;  (** states folded away at join points *)
  mutable prunes : int;  (** branch sides discharged UNSAT before scheduling *)
}

val block :
  ?config:config ->
  ?merge:merge_policy ->
  ?memo:Solver.memo ->
  env:sval Smap.t ->
  Nfl.Ast.block ->
  path list * stats
(** [block ~env b] explores [b] from symbolic store [env]. Reads of
    variables absent from [env] yield fresh symbols (uninitialized
    locals). [memo] shares a solver verdict cache across explorations
    (e.g. slice and original of the same program); the cache stats in
    the result are this exploration's deltas. [merge] enables
    join-point path merging; omitted, the engine enumerates exactly
    the recursive depth-first explorer's paths in the same order. *)
