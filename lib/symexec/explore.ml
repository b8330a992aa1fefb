(** Bounded symbolic execution of NFL blocks, as a worklist engine.

    Explores every feasible execution path of a block under a symbolic
    environment: packet fields and designated state variables start as
    free symbols, branches fork when the {!Solver} cannot decide them,
    loops unroll up to a bound (Section 3.2: NF code is written so that
    loops are bounded; paths that exceed the bound are kept but marked
    truncated). Each completed path carries its path condition,
    executed statements, emitted packets and final symbolic store —
    everything Algorithm 1's refinement step (lines 11-16) needs.

    Pending states live on an explicit LIFO worklist rather than the
    native call stack: a fork schedules its false arm as a task
    (carrying the state's hash-consed path condition) and continues
    inline on the true arm, so with merging off the engine replays the
    old depth-first enumeration literally. Both arms are discharged
    against the incremental {!Solver.Ctx} {e before} being scheduled —
    an UNSAT side is pruned eagerly and never interpreted. When a
    [merge_policy] is supplied, forks at branches with a CFG join point
    open a {e merge region}: arms that reach the join with compatible
    stores are folded into one state whose differing values become
    guarded {!Sexpr.mk_ite} summaries (MultiSE-style), so k sequential
    branches cost O(k) scheduled states instead of O(2^k) paths. *)

module Smap = Map.Make (String)
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

exception Unsupported of string

(** Symbolic runtime values. *)
type sval =
  | Scalar of Sexpr.t
  | Pktv of (string * Sexpr.t) list  (** packet as a field map *)
  | Dictv of Sexpr.dict_state
  | Listv of sval list

let rec pp_sval ppf = function
  | Scalar e -> Sexpr.pp ppf e
  | Pktv fields ->
      Fmt.pf ppf "pkt{%a}" Fmt.(list ~sep:(any "; ") (pair ~sep:(any "=") string Sexpr.pp)) fields
  | Dictv d -> Sexpr.pp_dict ppf d
  | Listv vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp_sval) vs

(** Lift a concrete value into the symbolic domain. *)
let rec sval_of_value (v : Value.t) =
  match v with
  | Value.Int _ | Value.Bool _ | Value.Str _ | Value.Tuple _ -> Scalar (Sexpr.const v)
  | Value.List vs -> Listv (List.map sval_of_value vs)
  | Value.Dict kvs ->
      (* Writes are read newest-first, and concrete dict lookups take
         the first binding, so the lift must preserve source order —
         reversing would flip precedence between duplicate keys. *)
      Dictv
        {
          Sexpr.base = Sexpr.empty_base;
          writes = List.map (fun (k, v) -> (Sexpr.const k, Some (Sexpr.const v))) kvs;
        }
  | Value.Pkt p ->
      Pktv
        (List.map (fun f -> (f, Sexpr.int (Packet.Pkt.get_int p f))) Packet.Headers.int_fields
        @ List.map
            (fun f -> (f, Sexpr.const (Value.Str (Packet.Pkt.get_str p f))))
            Packet.Headers.str_fields)

(** Fully symbolic packet named [name]: field [f] is the symbol
    ["name.f"]. *)
let sym_pkt name =
  Pktv (List.map (fun f -> (f, Sexpr.sym (name ^ "." ^ f))) (Packet.Headers.int_fields @ Packet.Headers.str_fields))

type config = {
  loop_bound : int;  (** max iterations per loop statement per path *)
  max_paths : int;  (** exploration budget; hitting it sets [overflowed] *)
  max_steps : int;  (** per-path statement budget *)
}

let default_config = { loop_bound = 2; max_paths = 4096; max_steps = 20_000 }

type merge_policy = {
  mergeable_if : int -> bool;
      (** May a fork at this [If] sid open a merge region? Typically
          [Joins.mergeable]: the branch has a statement join point
          and does not sit inside a loop body. *)
  admit_guard : Sexpr.t -> bool;
      (** May this branch atom be folded into a guard? Extraction
          rejects atoms over config/state symbols so that entry tables
          keep per-path concrete verdicts for them. *)
}

type path = {
  pc : Solver.literal list;  (** path condition, in decision order *)
  trace : int list;  (** executed statement ids, ascending and distinct *)
  sends : (string * Sexpr.t) list list;  (** snapshots of packets sent *)
  env : sval Smap.t;  (** final symbolic store *)
  truncated : bool;  (** loop bound or step budget hit *)
}

type stats = {
  mutable paths : int;
  mutable truncated_paths : int;
  mutable decides : int;  (** branch decisions that consulted the solver *)
  mutable solver_calls : int;  (** actual decision-procedure invocations *)
  mutable solver_cache_hits : int;
  mutable solver_cache_misses : int;
  mutable solver_time_s : float;  (** CPU time inside the decision procedure *)
  mutable forks : int;
  mutable max_fork_depth : int;  (** deepest path condition at a fork *)
  mutable fork_depths : int Imap.t;  (** pc depth at fork -> fork count *)
  mutable overflowed : bool;  (** [max_paths] reached; enumeration incomplete *)
  mutable merges : int;  (** states folded away at join points *)
  mutable prunes : int;  (** branch sides discharged UNSAT before scheduling *)
}

(* Mutable per-path state, copied on fork (all fields are immutable
   values, so copying is O(1) record copy), plus the innermost merge
   region the state belongs to. *)
type pstate = {
  mutable env : sval Smap.t;
  mutable pc_rev : Solver.literal list;
  mutable trace : Iset.t;  (** executed statement ids *)
  mutable sends_rev : (string * Sexpr.t) list list;
  mutable iters : int Imap.t;  (** loop sid -> iterations on this path *)
  mutable steps : int;
  mutable truncated : bool;
  mutable region : join option;
}

(* A merge region: opened by a fork at a mergeable branch. [expected]
   counts the control threads that will eventually either arrive at the
   join ([parked]) or die (finish their path early); when everyone is
   accounted for the region releases its parked states — merged where
   compatible — into the continuation [jcont]. *)
and join = {
  jcont : cont;
  jouter : join option;
  mutable expected : int;
  mutable parked : pstate list;
}

(* Defunctionalized continuations: what remains of the program after
   the current statement. Tasks pair a state with one of these, so a
   pending fork arm is a first-class value on the worklist instead of a
   stack frame. *)
and cont =
  | Kfinish
  | Kseq of Nfl.Ast.block * cont
  | Kloop of Nfl.Ast.stmt * cont  (** re-test a [While] condition *)
  | Kfor of string * sval list * Nfl.Ast.block * cont
  | Kjoin of join

let copy ps =
  {
    env = ps.env;
    pc_rev = ps.pc_rev;
    trace = ps.trace;
    sends_rev = ps.sends_rev;
    iters = ps.iters;
    steps = ps.steps;
    truncated = ps.truncated;
    region = ps.region;
  }

exception Cut  (* abandon this path (infeasible or per-path budget) *)

exception Overflow
(* [max_paths] spent: unlike [Cut], this is not caught per task, so it
   unwinds the whole exploration promptly instead of letting queued
   states keep exploring a dead budget. *)

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                              *)
(* ------------------------------------------------------------------ *)

let scalar = function
  | Scalar e -> e
  | Pktv _ -> raise (Unsupported "packet used as scalar")
  | Dictv _ -> raise (Unsupported "dict used as scalar")
  | Listv vs ->
      (* Lists of scalars may appear in scalar position (indexing with a
         symbolic index); embed as a list term. *)
      Sexpr.mk_list
        (List.map
           (function Scalar e -> e | _ -> raise (Unsupported "nested container in scalar list"))
           vs)

let rec eval ps (e : Nfl.Ast.expr) : sval =
  match e with
  | Nfl.Ast.Int n -> Scalar (Sexpr.int n)
  | Nfl.Ast.Bool b -> Scalar (Sexpr.const (Value.Bool b))
  | Nfl.Ast.Str s -> Scalar (Sexpr.const (Value.Str s))
  | Nfl.Ast.Var x -> (
      match Smap.find_opt x ps.env with
      | Some v -> v
      | None ->
          (* A read of a local never assigned on this path (e.g. log
             code peeking at another iteration's scratch): a fresh
             symbolic scalar, as KLEE treats uninitialized memory. *)
          Scalar (Sexpr.sym x))
  | Nfl.Ast.Tuple es -> Scalar (Sexpr.mk_tuple (List.map (fun e -> scalar (eval ps e)) es))
  | Nfl.Ast.List_lit es -> Listv (List.map (eval ps) es)
  | Nfl.Ast.Dict_lit -> Dictv Sexpr.dict_empty
  | Nfl.Ast.Binop (op, a, b) -> Scalar (Sexpr.mk_bin op (scalar (eval ps a)) (scalar (eval ps b)))
  | Nfl.Ast.Unop (Nfl.Ast.Not, a) -> Scalar (Sexpr.mk_not (scalar (eval ps a)))
  | Nfl.Ast.Unop (Nfl.Ast.Neg, a) -> Scalar (Sexpr.mk_neg (scalar (eval ps a)))
  | Nfl.Ast.Index (c, k) -> (
      let kv = scalar (eval ps k) in
      match eval ps c with
      | Dictv d -> Scalar (Sexpr.mk_dget d kv)
      | Listv vs -> (
          match Sexpr.view kv with
          | Sexpr.Const (Value.Int i) when i >= 0 && i < List.length vs -> List.nth vs i
          | Sexpr.Const (Value.Int _) -> raise (Unsupported "list index out of range")
          | _ ->
              (* Symbolic index: selection term over a scalar list. *)
              Scalar
                (Sexpr.mk_get
                   (Sexpr.mk_list
                      (List.map
                         (function
                           | Scalar e -> e
                           | _ -> raise (Unsupported "symbolic index into non-scalar list"))
                         vs))
                   kv))
      | Scalar t -> Scalar (Sexpr.mk_get t kv)
      | Pktv _ -> raise (Unsupported "indexing a packet"))
  | Nfl.Ast.Field (pe, f) -> (
      match eval ps pe with
      | Pktv fields -> (
          match List.assoc_opt f fields with
          | Some v -> Scalar v
          | None -> raise (Unsupported ("unknown packet field " ^ f)))
      | Scalar t -> Scalar (Sexpr.mk_get t (Sexpr.const (Value.Str f)))
      | Dictv _ | Listv _ -> raise (Unsupported "field access on container"))
  | Nfl.Ast.Mem (k, d) -> (
      let kv = scalar (eval ps k) in
      match eval ps d with
      | Dictv ds -> Scalar (Sexpr.mk_mem ds kv)
      | Listv vs ->
          (* Membership in a (config) list: decidable componentwise when
             comparisons fold; otherwise a disjunction. *)
          let eqs = List.map (fun v -> Sexpr.mk_bin Nfl.Ast.Eq kv (scalar v)) vs in
          Scalar (List.fold_left (fun acc e -> Sexpr.mk_bin Nfl.Ast.Or acc e) Sexpr.fls eqs)
      | Scalar _ | Pktv _ -> raise (Unsupported "membership on non-container"))
  | Nfl.Ast.Call (f, args) ->
      if Nfl.Builtins.is_pure f then
        let vs = List.map (eval ps) args in
        match (f, vs) with
        | "len", [ Listv l ] -> Scalar (Sexpr.int (List.length l))
        | "len", [ Dictv _ ] -> raise (Unsupported "len of symbolic dict")
        | _, _ -> Scalar (Sexpr.mk_ufun f (List.map scalar vs))
      else raise (Unsupported ("call in expression: " ^ f))

(* ------------------------------------------------------------------ *)
(* State merging                                                      *)
(* ------------------------------------------------------------------ *)

exception Incompatible

let lit_eq (a : Solver.literal) (b : Solver.literal) =
  Sexpr.equal a.Solver.atom b.Solver.atom && a.Solver.positive = b.Solver.positive

let lit_expr (l : Solver.literal) =
  if l.Solver.positive then l.Solver.atom else Sexpr.mk_not l.Solver.atom

let conj = function
  | [] -> Sexpr.tru
  | l :: rest ->
      List.fold_left (fun acc l -> Sexpr.mk_bin Nfl.Ast.And acc (lit_expr l)) (lit_expr l) rest

let dict_state_equal (a : Sexpr.dict_state) (b : Sexpr.dict_state) =
  String.equal a.Sexpr.base b.Sexpr.base
  && List.equal
       (fun (k1, v1) (k2, v2) -> Sexpr.equal k1 k2 && Option.equal Sexpr.equal v1 v2)
       a.Sexpr.writes b.Sexpr.writes

(* Fold two values into one guarded summary: [g] selects the first.
   Scalars become [ite] terms (hash-consing collapses equal arms);
   containers merge structurally. Dictionaries must agree physically —
   folding divergent write logs under a guard would need guarded
   writes, which the refinement step cannot split back apart. *)
let rec merge_sval g a b =
  match (a, b) with
  | Scalar ea, Scalar eb -> Scalar (Sexpr.mk_ite g ea eb)
  | Pktv fa, Pktv fb ->
      if List.length fa <> List.length fb then raise Incompatible;
      Pktv
        (List.map
           (fun (f, ea) ->
             match List.assoc_opt f fb with
             | Some eb -> (f, Sexpr.mk_ite g ea eb)
             | None -> raise Incompatible)
           fa)
  | Dictv da, Dictv db -> if dict_state_equal da db then a else raise Incompatible
  | Listv la, Listv lb ->
      if List.length la <> List.length lb then raise Incompatible;
      Listv (List.map2 (merge_sval g) la lb)
  | (Scalar _ | Pktv _ | Dictv _ | Listv _), _ -> raise Incompatible

(* Try to fold state [b] into state [a]. The two path conditions must
   share a common prefix and then diverge on {e complementary} head
   literals (same atom, opposite polarity) — this keeps merged path
   conditions mutually disjoint, which the extracted entry table relies
   on. Every diverging atom must pass [admit_guard]; then [a]'s suffix
   conjunction [ga] guards its values in the folded summaries and the
   merged path condition is the prefix plus [ga ∨ gb] (which the
   {!Sexpr} annihilator collapses to true when the suffixes are a
   complementary pair, i.e. straight-line diamonds merge for free). *)
let merge2 (pol : merge_policy) (a : pstate) (b : pstate) : pstate option =
  try
    if a.truncated <> b.truncated then raise Incompatible;
    if not (Imap.equal ( = ) a.iters b.iters) then raise Incompatible;
    if List.length a.sends_rev <> List.length b.sends_rev then raise Incompatible;
    let rec split pre_rev pa pb =
      match (pa, pb) with
      | x :: xs, y :: ys when lit_eq x y -> split (x :: pre_rev) xs ys
      | _ -> (pre_rev, pa, pb)
    in
    let pre_rev, sa, sb = split [] (List.rev a.pc_rev) (List.rev b.pc_rev) in
    (match (sa, sb) with
    | x :: _, y :: _
      when Sexpr.equal x.Solver.atom y.Solver.atom
           && x.Solver.positive = not y.Solver.positive ->
        ()
    | _ -> raise Incompatible);
    let admit (l : Solver.literal) =
      if not (pol.admit_guard l.Solver.atom) then raise Incompatible
    in
    List.iter admit sa;
    List.iter admit sb;
    let ga = conj sa and gb = conj sb in
    let env =
      Smap.merge
        (fun _ va vb ->
          match (va, vb) with
          | Some va, Some vb -> Some (merge_sval ga va vb)
          | _ -> raise Incompatible)
        a.env b.env
    in
    let sends_rev =
      List.map2
        (fun fa fb ->
          if List.length fa <> List.length fb then raise Incompatible;
          List.map
            (fun (f, ea) ->
              match List.assoc_opt f fb with
              | Some eb -> (f, Sexpr.mk_ite ga ea eb)
              | None -> raise Incompatible)
            fa)
        a.sends_rev b.sends_rev
    in
    let guard = Sexpr.mk_bin Nfl.Ast.Or ga gb in
    let pc_rev =
      if Sexpr.equal guard Sexpr.tru then pre_rev else Solver.lit guard true :: pre_rev
    in
    Some
      {
        env;
        pc_rev;
        trace = Iset.union a.trace b.trace;
        sends_rev;
        iters = a.iters;
        steps = max a.steps b.steps;
        truncated = a.truncated;
        region = a.region;
      }
  with Incompatible -> None

(* ------------------------------------------------------------------ *)
(* Path exploration                                                   *)
(* ------------------------------------------------------------------ *)

(* A schedulable unit: resume [tps] at continuation [tcont]. The task's
   path condition travels with the state; the solver context is synced
   to it at dequeue. *)
type task = { tps : pstate; tcont : cont }

type t = {
  cfgc : config;
  merge : merge_policy option;
  stats : stats;
  ctx : Solver.Ctx.t;  (** incremental solver; stack mirrors [ctx_rev] *)
  mutable ctx_rev : Solver.literal list;  (** what the context holds, newest first *)
  mutable work : task list;  (** LIFO: preserves depth-first path order *)
  mutable done_paths : path list;
}

let push_lit t ps l =
  ps.pc_rev <- l :: ps.pc_rev;
  Solver.Ctx.push t.ctx l;
  t.ctx_rev <- l :: t.ctx_rev

(* Re-point the solver context at a task's path condition: pop to the
   longest common prefix, push the remainder. Pushes assert
   incrementally and perform no solver checks, so switching tasks costs
   no decision-procedure calls; with LIFO scheduling the pop/push
   sequence is exactly the old recursive engine's backtracking. *)
let sync_ctx t (target_rev : Solver.literal list) =
  if t.ctx_rev != target_rev then begin
    let rec go cur tgt =
      match (cur, tgt) with
      | c :: cs, g :: gs when lit_eq c g -> go cs gs
      | cur, tgt ->
          List.iter (fun _ -> Solver.Ctx.pop t.ctx) cur;
          List.iter (fun l -> Solver.Ctx.push t.ctx l) tgt
    in
    go (List.rev t.ctx_rev) (List.rev target_rev);
    t.ctx_rev <- target_rev
  end

let bump_expected = function None -> () | Some j -> j.expected <- j.expected + 1

let tick t ps (s : Nfl.Ast.stmt) on_finish =
  ps.trace <- Iset.add s.Nfl.Ast.sid ps.trace;
  ps.steps <- ps.steps + 1;
  if ps.steps > t.cfgc.max_steps then begin
    (* Record the partial path as truncated rather than dropping it
       silently — callers inspect [truncated_paths] for budget hits. *)
    ps.truncated <- true;
    on_finish t ps;
    raise Cut
  end

(* Decide a branch condition under the current path condition, which
   the solver context holds asserted incrementally. The exploration
   invariant — the current pc is Sat (every pushed literal extended an
   unrefuted conjunction) — lets an Unsat on one side answer the other
   side for free: ¬sat_t ⇒ sat_f. This is the engine's eager pruning:
   an infeasible side is discharged here, before any state for it is
   built or scheduled, and [stats.prunes] counts those discharges.
   Constant conditions and cache hits cost no solver calls;
   [stats.solver_calls] counts actual decision-procedure invocations
   only. *)
let decide t (cond : Sexpr.t) =
  match Sexpr.view cond with
  | Sexpr.Const (Value.Bool b) -> if b then `True else `False
  | Sexpr.Const (Value.Int n) -> if n <> 0 then `True else `False
  | _ ->
      t.stats.decides <- t.stats.decides + 1;
      if Solver.Ctx.check_extended t.ctx (Solver.lit cond true) = Solver.Unsat then begin
        t.stats.prunes <- t.stats.prunes + 1;
        `False
      end
      else if Solver.Ctx.check_extended t.ctx (Solver.lit cond false) = Solver.Unsat then begin
        t.stats.prunes <- t.stats.prunes + 1;
        `True
      end
      else `Fork

let record_fork t =
  let d = Solver.Ctx.depth t.ctx in
  t.stats.forks <- t.stats.forks + 1;
  t.stats.max_fork_depth <- max t.stats.max_fork_depth d;
  t.stats.fork_depths <-
    Imap.update d (function None -> Some 1 | Some n -> Some (n + 1)) t.stats.fork_depths

(* --- Region accounting --------------------------------------------- *)

(* [finish] records a completed path and notifies the state's region
   that one expected control thread will never arrive; [arrive] parks a
   state at its region's join. Either event may complete the region's
   roster, triggering [release]: parked states are greedily merged into
   groups, each group is charged to the outer region and scheduled on
   the continuation. Releasing an empty roster (every arm finished
   early, e.g. both returned) cascades the death outward. *)

let rec finish t ps =
  t.stats.paths <- t.stats.paths + 1;
  if ps.truncated then t.stats.truncated_paths <- t.stats.truncated_paths + 1;
  t.done_paths <-
    {
      pc = List.rev ps.pc_rev;
      trace = Iset.elements ps.trace;
      sends = List.rev ps.sends_rev;
      env = ps.env;
      truncated = ps.truncated;
    }
    :: t.done_paths;
  on_death t ps.region

and on_death t = function
  | None -> ()
  | Some j ->
      j.expected <- j.expected - 1;
      if j.expected >= 0 && List.length j.parked >= j.expected then release t j

and arrive t ps j =
  j.parked <- j.parked @ [ ps ];
  if List.length j.parked >= j.expected then release t j

and release t j =
  let states = j.parked in
  j.parked <- [];
  j.expected <- -1;
  match states with
  | [] -> on_death t j.jouter
  | _ ->
      let groups =
        match t.merge with
        | None -> states
        | Some pol ->
            (* Greedy pairwise folding in arrival order: each state
               joins the first compatible group or opens its own. *)
            List.fold_left
              (fun groups s ->
                let rec insert = function
                  | [] -> [ s ]
                  | g :: rest -> (
                      match merge2 pol g s with
                      | Some m -> m :: rest
                      | None -> g :: insert rest)
                in
                insert groups)
              [] states
      in
      t.stats.merges <- t.stats.merges + (List.length states - List.length groups);
      (* The region was opened in place of ONE expected arrival at the
         outer region; it hands back [groups] arrivals instead. *)
      (match j.jouter with
      | Some outer -> outer.expected <- outer.expected + List.length groups - 1
      | None -> ());
      List.iter (fun ps -> ps.region <- j.jouter) groups;
      (* Head-consed LIFO worklist: listing groups in arrival order
         makes them pop in arrival order, preserving the depth-first
         order completed paths are recorded in. *)
      t.work <- List.map (fun ps -> { tps = ps; tcont = j.jcont }) groups @ t.work

(* --- Interpreter --------------------------------------------------- *)

let rec apply t ps (k : cont) =
  match k with
  | Kfinish -> finish t ps
  | Kseq ([], k) -> apply t ps k
  | Kseq (s :: rest, k) -> exec_stmt t ps s (Kseq (rest, k))
  | Kloop (s, k) -> loop_step t ps s k
  | Kfor (_, [], _, k) -> apply t ps k
  | Kfor (x, v :: vs, body, k) ->
      ps.env <- Smap.add x v ps.env;
      apply t ps (Kseq (body, Kfor (x, vs, body, k)))
  | Kjoin j -> arrive t ps j

and exec_stmt t ps (s : Nfl.Ast.stmt) (k : cont) =
  if t.stats.paths + 1 >= t.cfgc.max_paths then begin
    (* The in-flight path is the last one the budget admits: record it
       as truncated rather than dropping it, then unwind the whole
       enumeration — [Overflow] is not caught per task. *)
    t.stats.overflowed <- true;
    if t.stats.paths < t.cfgc.max_paths then begin
      ps.truncated <- true;
      finish t ps
    end;
    raise Overflow
  end;
  tick t ps s finish;
  match s.Nfl.Ast.kind with
  | Nfl.Ast.Pass -> apply t ps k
  | Nfl.Ast.Assign (lv, e) ->
      let v = eval ps e in
      (match lv with
      | Nfl.Ast.L_var x -> ps.env <- Smap.add x v ps.env
      | Nfl.Ast.L_index (d, ke) -> (
          let kv = scalar (eval ps ke) in
          match Smap.find_opt d ps.env with
          | Some (Dictv ds) ->
              let vv = scalar v in
              ps.env <- Smap.add d (Dictv { ds with Sexpr.writes = (kv, Some vv) :: ds.Sexpr.writes }) ps.env
          | Some (Listv vs) -> (
              match Sexpr.view kv with
              | Sexpr.Const (Value.Int i) when i >= 0 && i < List.length vs ->
                  ps.env <-
                    Smap.add d (Listv (List.mapi (fun j x -> if j = i then v else x) vs)) ps.env
              | _ -> raise (Unsupported "symbolic list write"))
          | _ -> raise (Unsupported ("index write to non-container " ^ d)))
      | Nfl.Ast.L_field (pv, f) -> (
          match Smap.find_opt pv ps.env with
          | Some (Pktv fields) ->
              let vv = scalar v in
              ps.env <- Smap.add pv (Pktv ((f, vv) :: List.remove_assoc f fields)) ps.env
          | _ -> raise (Unsupported ("field write to non-packet " ^ pv))));
      apply t ps k
  | Nfl.Ast.Delete (d, ke) ->
      let kv = scalar (eval ps ke) in
      (match Smap.find_opt d ps.env with
      | Some (Dictv ds) ->
          ps.env <- Smap.add d (Dictv { ds with Sexpr.writes = (kv, None) :: ds.Sexpr.writes }) ps.env
      | _ -> raise (Unsupported ("del on non-dict " ^ d)));
      apply t ps k
  | Nfl.Ast.Expr (Nfl.Ast.Call (f, args)) ->
      if f = Nfl.Builtins.pkt_output then begin
        (match List.map (eval ps) args with
        | [ Pktv fields ] -> ps.sends_rev <- fields :: ps.sends_rev
        | _ -> raise (Unsupported "send() expects a packet"));
        apply t ps k
      end
      else if f = Nfl.Builtins.pkt_drop || Nfl.Builtins.is_log_sink f || Nfl.Builtins.is_pure f
      then apply t ps k
      else if f = Nfl.Builtins.pkt_input then
        raise (Unsupported "recv() inside the analyzed region")
      else raise (Unsupported ("call to " ^ f))
  | Nfl.Ast.Expr _ -> apply t ps k
  | Nfl.Ast.Return _ ->
      (* End of this packet's processing. *)
      finish t ps
  | Nfl.Ast.If (c, b1, b2) -> (
      let cv = scalar (eval ps c) in
      match decide t cv with
      | `True -> apply t ps (Kseq (b1, k))
      | `False -> apply t ps (Kseq (b2, k))
      | `Fork ->
          record_fork t;
          let ps' = copy ps in
          let kt, kf =
            match t.merge with
            | Some pol when pol.mergeable_if s.Nfl.Ast.sid ->
                (* Open a merge region in place of this control thread:
                   the outer region's roster is unchanged — the region
                   itself will report back however many groups survive
                   the join. *)
                let j = { jcont = k; jouter = ps.region; expected = 2; parked = [] } in
                ps.region <- Some j;
                ps'.region <- Some j;
                (Kseq (b1, Kjoin j), Kseq (b2, Kjoin j))
            | _ ->
                bump_expected ps.region;
                (Kseq (b1, k), Kseq (b2, k))
          in
          (* Schedule the false arm; continue inline on the true arm.
             LIFO pop resumes the false arm exactly when the old
             recursive engine would have backtracked to it. *)
          ps'.pc_rev <- Solver.lit cv false :: ps'.pc_rev;
          t.work <- { tps = ps'; tcont = kf } :: t.work;
          push_lit t ps (Solver.lit cv true);
          apply t ps kt)
  | Nfl.Ast.While _ -> loop_step t ps s k
  | Nfl.Ast.For_in (x, e, body) -> (
      match eval ps e with
      | Listv vs -> apply t ps (Kfor (x, vs, body, k))
      | Scalar { Sexpr.node = Sexpr.Const (Value.List vs); _ } ->
          apply t ps (Kfor (x, List.map sval_of_value vs, body, k))
      | _ -> raise (Unsupported "for-in over symbolic container"))

and loop_step t ps (s : Nfl.Ast.stmt) (k : cont) =
  match s.Nfl.Ast.kind with
  | Nfl.Ast.While (c, body) -> (
      let sid = s.Nfl.Ast.sid in
      let count = Option.value ~default:0 (Imap.find_opt sid ps.iters) in
      let cv = scalar (eval ps c) in
      match decide t cv with
      | `False -> apply t ps k
      | `True when count >= t.cfgc.loop_bound ->
          (* Bound hit and the loop cannot exit: record the path as
             truncated. *)
          ps.truncated <- true;
          finish t ps
      | `Fork when count >= t.cfgc.loop_bound ->
          (* Bound hit: cut the continuing side, keep the feasible
             exiting side, mark the path truncated. *)
          ps.truncated <- true;
          push_lit t ps (Solver.lit cv false);
          apply t ps k
      | `True ->
          ps.iters <- Imap.add sid (count + 1) ps.iters;
          apply t ps (Kseq (body, Kloop (s, k)))
      | `Fork ->
          (* Loop forks never open merge regions: iterations are
             distinct control locations once unrolled, and folding them
             would conflate first-match semantics (see acl). *)
          record_fork t;
          let ps' = copy ps in
          bump_expected ps.region;
          ps'.pc_rev <- Solver.lit cv false :: ps'.pc_rev;
          t.work <- { tps = ps'; tcont = k } :: t.work;
          ps.iters <- Imap.add sid (count + 1) ps.iters;
          push_lit t ps (Solver.lit cv true);
          apply t ps (Kseq (body, Kloop (s, k))))
  | _ -> invalid_arg "loop_step: not a While"

(* The scheduler: pop, re-point the solver at the task's path
   condition, run it to its next finish/park/fork. [Cut] abandons only
   the current task. *)
let rec drain t =
  match t.work with
  | [] -> ()
  | { tps; tcont } :: rest ->
      t.work <- rest;
      sync_ctx t tps.pc_rev;
      (try apply t tps tcont with Cut -> ());
      drain t

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

(** [block cfg ~env b] explores [b] from symbolic store [env], returning
    all completed paths and exploration statistics. [memo] shares a
    solver verdict cache across explorations (cache hit/miss stats
    report this exploration's deltas). [merge] enables join-point path
    merging; omitted, the engine enumerates exactly the old recursive
    explorer's paths in the same order. *)
let block ?(config = default_config) ?merge ?memo ~env (b : Nfl.Ast.block) =
  let memo = match memo with Some m -> m | None -> Solver.memo_create () in
  let hits0 = Solver.memo_hits memo and misses0 = Solver.memo_misses memo in
  let t =
    {
      cfgc = config;
      merge;
      stats =
        {
          paths = 0;
          truncated_paths = 0;
          decides = 0;
          solver_calls = 0;
          solver_cache_hits = 0;
          solver_cache_misses = 0;
          solver_time_s = 0.;
          forks = 0;
          max_fork_depth = 0;
          fork_depths = Imap.empty;
          overflowed = false;
          merges = 0;
          prunes = 0;
        };
      ctx = Solver.Ctx.create ~memo ();
      ctx_rev = [];
      work = [];
      done_paths = [];
    }
  in
  let ps =
    {
      env;
      pc_rev = [];
      trace = Iset.empty;
      sends_rev = [];
      iters = Imap.empty;
      steps = 0;
      truncated = false;
      region = None;
    }
  in
  t.work <- [ { tps = ps; tcont = Kseq (b, Kfinish) } ];
  (try drain t with Overflow -> ());
  t.stats.solver_calls <- Solver.Ctx.checks t.ctx;
  t.stats.solver_cache_hits <- Solver.memo_hits memo - hits0;
  t.stats.solver_cache_misses <- Solver.memo_misses memo - misses0;
  t.stats.solver_time_s <- Solver.Ctx.solver_time t.ctx;
  (List.rev t.done_paths, t.stats)
