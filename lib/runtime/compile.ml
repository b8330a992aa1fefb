(** Model → dataplane compiler. See the interface for the strategy;
    the invariant throughout is exact agreement with
    {!Nfactor.Model_interp}: same values, same false-on-unresolved
    literal semantics, same evaluation order for effects that can
    raise. *)

open Symexec

type matcher = Flowstate.t -> Packet.Pkt.t -> bool
type valfn = Flowstate.t -> Packet.Pkt.t -> Value.t
type setter = Packet.Pkt.t -> Value.t -> Packet.Pkt.t

type cupdate =
  | CSet of string * valfn
  | CDict of string * (valfn * valfn option) list

type centry = {
  eidx : int;
  scan : bool;
  slots : int array;
  emit : (setter * valfn) list array;
  updates : (cupdate * bool) list;
  uslots : int;
}

type vdispatch =
  | VHash of { table : (Value.t, int) Hashtbl.t; other : int }
  | VRange of { cuts : int array; classes : int array; non_int : int }

type dnode =
  | Leaf of centry array
  | Dstate of {
      base : string;
      key : valfn;
      key_src : Sexpr.t;
      vdis : vdispatch;
      absent : int;
      unres : int;
      children : dnode array;
    }
  | Dexpr of {
      expr : valfn;
      src : Sexpr.t;
      vdis : vdispatch;
      unres : int;
      children : dnode array;
    }
  | Dbool of {
      expr : valfn;
      src : Sexpr.t;
      truthy : int;
      falsy : int;
      nonbool : int;
      unres : int;
      children : dnode array;
    }

type node_counts = {
  n_state : int;
  n_hash : int;
  n_range : int;
  n_bool : int;
  n_leaves : int;
}

type t = {
  model : Nfactor.Model.t;
  lit_fns : matcher array;
  root : dnode;
  live : int;
  live_idx : bool array;
  shared : bool;
  indexed : int;
  scanned : int;
  dropped_static : int;
  nodes : node_counts;
  max_uslots : int;
}

let unresolved name = raise (Nfactor.Model_interp.Unresolved name)

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* [Value.Int] boxes for packet-field reads dominate steady-state
   minor allocation; ports, flags, protocol, TTL and typical lengths
   fit 16 bits, so a static intern table covers them. Sharing the
   boxes is safe — value equality is structural everywhere. *)
let small_int = Array.init 65536 (fun i -> Value.Int i)
let vint n = if n land 0xffff = n then Array.unsafe_get small_int n else Value.Int n
let vtrue = Value.Bool true
let vfalse = Value.Bool false

(* Packet field reads bind the record accessor at compile time instead
   of re-dispatching on the field name per packet. *)
let field_reader name f : valfn =
  match f with
  | "ip_src" -> fun _ (p : Packet.Pkt.t) -> Value.Int p.Packet.Pkt.ip_src
  | "ip_dst" -> fun _ (p : Packet.Pkt.t) -> Value.Int p.Packet.Pkt.ip_dst
  | "ip_proto" -> fun _ (p : Packet.Pkt.t) -> vint p.Packet.Pkt.ip_proto
  | "ip_ttl" -> fun _ (p : Packet.Pkt.t) -> vint p.Packet.Pkt.ip_ttl
  | "ip_len" -> fun _ (p : Packet.Pkt.t) -> vint p.Packet.Pkt.ip_len
  | "sport" -> fun _ (p : Packet.Pkt.t) -> vint p.Packet.Pkt.sport
  | "dport" -> fun _ (p : Packet.Pkt.t) -> vint p.Packet.Pkt.dport
  | "tcp_flags" -> fun _ (p : Packet.Pkt.t) -> vint p.Packet.Pkt.tcp_flags
  | "seq" -> fun _ (p : Packet.Pkt.t) -> Value.Int p.Packet.Pkt.seq
  | "ack" -> fun _ (p : Packet.Pkt.t) -> Value.Int p.Packet.Pkt.ack
  | "payload" -> fun _ (p : Packet.Pkt.t) -> Value.Str p.Packet.Pkt.payload
  | f when Packet.Headers.is_int_field f ->
      fun _ p -> vint (Packet.Pkt.get_int p f)
  | f when Packet.Headers.is_str_field f ->
      fun _ p -> Value.Str (Packet.Pkt.get_str p f)
  | _ -> fun _ _ -> unresolved name

(* [wrap e thunk] intercepts every node's compilation, so [compile]
   can memoize per hash-consed term id and insert per-step value
   caches on shared subterms; the plain [compile_expr] uses an
   identity wrap. *)
let rec gen_expr ~wrap ~pkt_var (e : Sexpr.t) : valfn =
  wrap e (fun () -> gen_raw ~wrap ~pkt_var e)

and gen_raw ~wrap ~pkt_var (e : Sexpr.t) : valfn =
  let prefix = pkt_var ^ "." in
  let plen = String.length prefix in
  let c = gen_expr ~wrap ~pkt_var in
  match Sexpr.view e with
  | Sexpr.Const v -> fun _ _ -> v
  | Sexpr.Sym s ->
      if String.length s > plen && String.sub s 0 plen = prefix then
        field_reader s (String.sub s plen (String.length s - plen))
      else fun st _ -> Flowstate.read st s
  | Sexpr.Bin (op, a, b) ->
      let fa = c a and fb = c b in
      fun st pkt -> Value.binop op (fa st pkt) (fb st pkt)
  | Sexpr.Not a ->
      let fa = c a in
      fun st pkt -> Value.unop Nfl.Ast.Not (fa st pkt)
  | Sexpr.Neg a ->
      let fa = c a in
      fun st pkt -> Value.unop Nfl.Ast.Neg (fa st pkt)
  | Sexpr.Tup es ->
      let fs = List.map c es in
      fun st pkt -> Value.Tuple (List.map (fun f -> f st pkt) fs)
  | Sexpr.Lst es ->
      let fs = List.map c es in
      fun st pkt -> Value.List (List.map (fun f -> f st pkt) fs)
  | Sexpr.Get (cont, i) ->
      let fc = c cont and fi = c i in
      fun st pkt -> Value.index (fc st pkt) (fi st pkt)
  | Sexpr.Ufun (f, args) ->
      let fs = List.map c args in
      fun st pkt -> Value.apply_pure f (List.map (fun g -> g st pkt) fs)
  | Sexpr.Mem (d, k) -> compile_dict_query ~wrap ~pkt_var `Mem d k
  | Sexpr.Dget (d, k) -> compile_dict_query ~wrap ~pkt_var `Get d k
  | Sexpr.Ite (g, a, b) ->
      (* Guard selects one compiled arm per call; agrees with the
         reference evaluator on Bool and Int-truthiness guards. *)
      let fg = c g and fa = c a and fb = c b in
      fun st pkt -> (
        match fg st pkt with
        | Value.Bool cond -> if cond then fa st pkt else fb st pkt
        | Value.Int n -> if n <> 0 then fa st pkt else fb st pkt
        | v -> raise (Value.Type_error (Fmt.str "ite guard: %a" Value.pp v)))

(* Dictionary atoms, lookup-only. The reference evaluator materializes
   base + writes into a full dict and then queries it; at runtime the
   key is concrete, so the last chronological write for that key (or,
   failing that, the base table) decides. Evaluation order matches the
   reference exactly — base resolution, then every write (key and
   inserted value, chronologically), then the queried key — so
   anything that raises, raises on both sides. *)
and compile_dict_query ~wrap ~pkt_var kind (d : Sexpr.dict_state) k : valfn =
  let c = gen_expr ~wrap ~pkt_var in
  let base = d.Sexpr.base in
  let is_empty = base = Sexpr.empty_base in
  let fk = c k in
  let missing = "missing key in " ^ base in
  match d.Sexpr.writes with
  | [] when not is_empty -> (
      (* Write-free probe of a live table — the overwhelmingly common
         shape — skips the per-call handle option and write-list
         allocations entirely. Order is unchanged: base resolution
         first, then the key. *)
      match kind with
      | `Mem ->
          fun st pkt ->
            let h = Flowstate.handle st base in
            if Flowstate.handle_mem st h (fk st pkt) then vtrue else vfalse
      | `Get -> (
          fun st pkt ->
            let h = Flowstate.handle st base in
            let key = fk st pkt in
            match Flowstate.handle_get st h key with
            | v -> v
            | exception Stdlib.Not_found -> unresolved missing))
  | writes ->
      let writes_c =
        (* chronological order, as [dict_after_writes] applies them *)
        List.rev_map (fun (wk, u) -> (c wk, Option.map c u)) writes
      in
      fun st pkt ->
        let h = if is_empty then None else Some (Flowstate.handle st base) in
        let ws =
          List.map
            (fun (kf, uf) -> (kf st pkt, Option.map (fun f -> f st pkt) uf))
            writes_c
        in
        let key = fk st pkt in
        (* last chronological write for [key] wins, like the dict_set fold *)
        let decided =
          List.fold_left
            (fun acc (wk, u) -> if Value.equal wk key then Some u else acc)
            None ws
        in
        (match (kind, decided) with
        | `Mem, Some (Some _) -> vtrue
        | `Mem, Some None -> vfalse
        | `Get, Some (Some v) -> v
        | `Get, Some None -> unresolved missing
        | `Mem, None -> (
            match h with
            | None -> vfalse
            | Some h -> if Flowstate.handle_mem st h key then vtrue else vfalse)
        | `Get, None -> (
            match Option.bind h (fun h -> Flowstate.handle_find st h key) with
            | Some v -> v
            | None -> unresolved missing))

let no_wrap _ thunk = thunk ()
let compile_expr ~pkt_var e = gen_expr ~wrap:no_wrap ~pkt_var e

let literal_matcher (f : valfn) ~positive : matcher =
  fun st pkt ->
   match f st pkt with
   | Value.Bool b -> b = positive
   | Value.Int n -> n <> 0 = positive
   | _ -> false
   | exception Value.Type_error _ -> false
   | exception Nfactor.Model_interp.Unresolved _ -> false

(* Per-step value memo for a compiled expression shared across
   evaluation sites (dispatch keys, literal atoms, updates, emits).
   Everything in one step evaluates against the pre-state, and the
   engine bumps the store clock exactly once per packet, so (store
   identity, clock) identifies the step; recency stamps are idempotent
   within it, and the two swallowable evaluation failures replay
   exactly. Only valid under the engine's clock discipline — never
   applied by the bare {!compile_expr}. *)
let cached (f : valfn) : valfn =
  let c_st : Flowstate.t option ref = ref None in
  let c_clk = ref min_int in
  let c_v = ref (Value.Bool false) in
  let c_exn : exn option ref = ref None in
  fun st pkt ->
    let clk = Flowstate.clock st in
    if !c_clk = clk && (match !c_st with Some s -> s == st | None -> false)
    then match !c_exn with None -> !c_v | Some e -> raise e
    else begin
      (* the only allocation on this path is [Some st] when the store
         itself changes, so steady-state misses allocate nothing *)
      (match !c_st with Some s when s == st -> () | _ -> c_st := Some st);
      c_clk := clk;
      match f st pkt with
      | v ->
          c_exn := None;
          c_v := v;
          v
      | exception ((Value.Type_error _ | Nfactor.Model_interp.Unresolved _) as e)
        ->
          c_exn := Some e;
          raise e
    end

(* ------------------------------------------------------------------ *)
(* Static evaluation against the config store                          *)
(* ------------------------------------------------------------------ *)

(* An expression is static when every free symbol is a cfgVar with a
   value in the config store: cfgVars never change during a run, so
   its value can be baked at compile time. oisVars and packet fields
   are dynamic by definition. *)
let is_static ~(model : Nfactor.Model.t) ~config e =
  Sexpr.Sset.for_all
    (fun s ->
      List.mem s model.Nfactor.Model.cfg_vars
      && Nfactor.Model_interp.Smap.mem s config)
    (Sexpr.syms e)

let static_value ~(model : Nfactor.Model.t) ~config e =
  if not (is_static ~model ~config e) then None
  else
    match
      Nfactor.Model_interp.eval ~pkt_var:model.Nfactor.Model.pkt_var config
        Nfactor.Model_interp.null_pkt e
    with
    | v -> Some v
    | exception _ -> None

(* ------------------------------------------------------------------ *)
(* Actions and updates                                                 *)
(* ------------------------------------------------------------------ *)

(* Like [field_reader]: bind the record update at compile time instead
   of re-dispatching on the field name per packet. *)
let field_setter f : setter =
  match f with
  | "ip_src" -> fun p v -> { p with Packet.Pkt.ip_src = Value.as_int v }
  | "ip_dst" -> fun p v -> { p with Packet.Pkt.ip_dst = Value.as_int v }
  | "ip_proto" -> fun p v -> { p with Packet.Pkt.ip_proto = Value.as_int v }
  | "ip_ttl" -> fun p v -> { p with Packet.Pkt.ip_ttl = Value.as_int v }
  | "ip_len" -> fun p v -> { p with Packet.Pkt.ip_len = Value.as_int v }
  | "sport" -> fun p v -> { p with Packet.Pkt.sport = Value.as_int v }
  | "dport" -> fun p v -> { p with Packet.Pkt.dport = Value.as_int v }
  | "tcp_flags" -> fun p v -> { p with Packet.Pkt.tcp_flags = Value.as_int v }
  | "seq" -> fun p v -> { p with Packet.Pkt.seq = Value.as_int v }
  | "ack" -> fun p v -> { p with Packet.Pkt.ack = Value.as_int v }
  | f when Packet.Headers.is_int_field f ->
      fun p v -> Packet.Pkt.set_int p f (Value.as_int v)
  | f ->
      fun p v ->
        (match v with
        | Value.Str s -> Packet.Pkt.set_str p f s
        | _ -> unresolved ("payload field " ^ f))

(* Emit snapshots cover every header field, but most assignments are
   the field's own incoming value (forwarding NFs rewrite one or two
   fields, or none). An identity write — [Sym "pkt.f"] assigned to
   [f] — is a pure non-raising read producing an equal packet, so
   eliding it is unobservable and saves a record copy per field. *)
let compile_action ~cexpr ~pkt_var (a : Nfactor.Model.pkt_action) =
  match a with
  | Nfactor.Model.Drop -> [||]
  | Nfactor.Model.Forward snaps ->
      Array.of_list
        (List.map
           (List.filter_map (fun (f, e) ->
                match Sexpr.view e with
                | Sexpr.Sym s when s = pkt_var ^ "." ^ f -> None
                | _ -> Some (field_setter f, cexpr e)))
           snaps)

let compile_update ~cexpr (v, u) =
  match u with
  | Nfactor.Model.Set_scalar e -> CSet (v, cexpr e)
  | Nfactor.Model.Dict_ops ops ->
      CDict (v, List.map (fun (k, op) -> (cexpr k, Option.map cexpr op)) ops)

(* The reference interpreter computes every update from the pre-state
   and folds them with [Smap.add], so when one entry updates a variable
   twice only the last write per variable is observable. Variable names
   are static, so that choice compiles to a per-update commit flag; the
   engine still resolves every update (exception parity) but commits
   only the flagged ones. *)
let compile_updates ~cexpr (us : (string * Nfactor.Model.state_update) list) =
  let rec flag = function
    | [] -> []
    | (v, u) :: rest ->
        let commits = not (List.exists (fun (v', _) -> v' = v) rest) in
        (compile_update ~cexpr (v, u), commits) :: flag rest
  in
  flag us

(* ------------------------------------------------------------------ *)
(* Literal classification                                              *)
(* ------------------------------------------------------------------ *)

(* How a literal's atom relates to the discriminator value it can
   dispatch on. *)
type shape =
  | Smem  (** atom is [key in base]: true iff the probed slot exists *)
  | Scmp of Nfl.Ast.binop * Value.t
      (** atom is [(discriminator value) OP constant] *)
  | Sbool  (** the whole atom, evaluated for truthiness *)

(* What a decision node evaluates once per packet. *)
type disc =
  | Kstate of string * Sexpr.t  (** per-flow table probe: base, key expr *)
  | Kexpr of Sexpr.t  (** packet/store expression value *)
  | Kbool of Sexpr.t  (** whole-atom truthiness *)

let disc_key = function
  | Kstate (b, k) -> (1, b, Sexpr.id k)
  | Kexpr e -> (2, "", Sexpr.id e)
  | Kbool e -> (3, "", Sexpr.id e)

(* Classify one literal. Every literal is classifiable — [Kbool] on
   the whole atom is the universal fallback — so the ordered scan
   survives only for [residual_match] entries, which never reach this
   function. Ordered comparisons qualify for value dispatch only
   against integer constants (interval structure); everything else
   dispatches on truthiness, which is still exact. *)
let classify ~model ~config (l : Solver.literal) =
  let cmp_shape op other =
    match static_value ~model ~config other with
    | Some c -> (
        match (op, c) with
        | (Nfl.Ast.Eq | Nfl.Ast.Ne), _ -> Some (op, c)
        | _, Value.Int _ -> Some (op, c)
        | _ -> None)
    | None -> None
  in
  let fallback = (Kbool l.Solver.atom, Sbool) in
  match Nfactor.Fsm.state_key_of_literal l with
  | Some (sk, `Mem) ->
      (Kstate (sk.Nfactor.Fsm.sk_base, sk.Nfactor.Fsm.sk_key), Smem)
  | Some (sk, `Value (op, other)) -> (
      match cmp_shape op other with
      | Some (op, c) ->
          (Kstate (sk.Nfactor.Fsm.sk_base, sk.Nfactor.Fsm.sk_key), Scmp (op, c))
      | None -> fallback)
  | None -> (
      match Sexpr.view l.Solver.atom with
      | Sexpr.Bin (op, a, b) when Nfactor.Fsm.is_cmp op -> (
          match
            (static_value ~model ~config a, static_value ~model ~config b)
          with
          | None, Some _ -> (
              match cmp_shape op b with
              | Some (op, c) -> (Kexpr a, Scmp (op, c))
              | None -> fallback)
          | Some _, None -> (
              match cmp_shape (Nfactor.Fsm.flip_cmp op) a with
              | Some (op, c) -> (Kexpr b, Scmp (op, c))
              | None -> fallback)
          | _ -> fallback)
      | _ -> fallback)

(* ------------------------------------------------------------------ *)
(* Class verdicts                                                      *)
(* ------------------------------------------------------------------ *)

(* A dispatch class, described precisely enough to decide every node
   literal on it. [Cgap] bounds are exclusive and both ends (when
   present) are cuts, so no cut lies inside the interval. *)
type vclass =
  | Cpoint of Value.t  (** discriminator equals this constant *)
  | Cgap of int option * int option  (** an [Int] strictly inside the open interval *)
  | Cother  (** VHash: equals none of the table constants *)
  | Cnonint  (** VRange: not an [Int] *)
  | Cabsent  (** Kstate: table exists, key absent *)
  | Cunres  (** evaluation raised / table missing *)
  | Ctruthy
  | Cfalsy
  | Cnonbool

(* The atom's truth on a class; [None] means evaluation raises or
   yields a non-boolean — the literal is false regardless of polarity,
   mirroring [literal_matcher]. *)
let atom_verdict (sh : shape) (c : vclass) : bool option =
  let ord cmp op =
    match op with
    | Nfl.Ast.Lt -> Some (cmp < 0)
    | Nfl.Ast.Le -> Some (cmp <= 0)
    | Nfl.Ast.Gt -> Some (cmp > 0)
    | Nfl.Ast.Ge -> Some (cmp >= 0)
    | _ -> None
  in
  match (sh, c) with
  | _, Cunres -> None
  | Smem, Cabsent -> Some false
  | Smem, _ -> Some true
  | Scmp _, Cabsent -> None (* a read of a missing key is unresolved *)
  | Scmp (op, k), Cpoint v -> (
      match op with
      | Nfl.Ast.Eq -> Some (Value.equal v k)
      | Nfl.Ast.Ne -> Some (not (Value.equal v k))
      | _ -> (
          match (v, k) with
          | Value.Int a, Value.Int b -> ord (compare a b) op
          | Value.Str a, Value.Str b -> ord (compare a b) op
          | _ -> None))
  | Scmp (op, k), Cgap (_, hi) -> (
      match op with
      | Nfl.Ast.Eq -> Some false (* k is a cut; cuts are excluded from gaps *)
      | Nfl.Ast.Ne -> Some true
      | _ ->
          let kn = Value.as_int k in
          (* k is never strictly inside the gap, so the whole gap sits
             on one side of it: below k iff the gap's upper cut <= k. *)
          let below = match hi with Some h -> kn >= h | None -> false in
          ord (if below then -1 else 1) op)
  | Scmp (op, _), Cother -> (
      match op with
      | Nfl.Ast.Eq -> Some false
      | Nfl.Ast.Ne -> Some true
      | _ -> None (* unreachable: ordered literals never join a VHash node *))
  | Scmp (op, k), Cnonint -> (
      match op with
      (* k is an Int in VRange mode; a non-Int value can't equal it *)
      | Nfl.Ast.Eq -> Some false
      | Nfl.Ast.Ne -> Some true
      | _ -> ignore k; None (* ordered compare against a non-Int raises *))
  | Sbool, Ctruthy -> Some true
  | Sbool, Cfalsy -> Some false
  | Sbool, Cnonbool -> None
  | Sbool, (Cpoint _ | Cgap _ | Cother | Cnonint | Cabsent) -> None
  | Scmp _, (Ctruthy | Cfalsy | Cnonbool) -> None

let literal_verdict (sh : shape) ~positive (c : vclass) =
  match atom_verdict sh c with Some b -> b = positive | None -> false

(* Per-entry intermediate form before decision-structure construction. *)
type pre = {
  p_eidx : int;
  p_lits : Solver.literal list;  (** dynamic-config ++ flow ++ state, match order *)
  p_scan : bool;  (** carries residual_match: never dispatched, only scanned *)
  p_entry : Nfactor.Model.entry;
}

let compile ?(shared = false) (model : Nfactor.Model.t) ~config =
  let pkt_var = model.Nfactor.Model.pkt_var in
  (* 1. Partial-evaluate config: decide each distinct static config
     literal once; statically-false entries disappear from the plan. *)
  let lit_verdict : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let static_holds (l : Solver.literal) =
    let key = Solver.lit_key l in
    match Hashtbl.find_opt lit_verdict key with
    | Some b -> b
    | None ->
        let b =
          Nfactor.Model_interp.literal_holds ~pkt_var config Nfactor.Model_interp.null_pkt l
        in
        Hashtbl.add lit_verdict key b;
        b
  in
  let pres =
    List.mapi
      (fun i (e : Nfactor.Model.entry) ->
        let static_cfg, dyn_cfg =
          List.partition
            (fun (l : Solver.literal) -> is_static ~model ~config l.Solver.atom)
            e.Nfactor.Model.config
        in
        if not (List.for_all static_holds static_cfg) then None
        else
          let match_lits = e.Nfactor.Model.flow_match @ e.Nfactor.Model.state_match in
          (* residual_match is informational for matching (the reference
             interpreter ignores it), but its presence marks the entry
             as not fully classified — too risky to dispatch, scan it. *)
          Some
            {
              p_eidx = i;
              p_lits = dyn_cfg @ match_lits;
              p_scan = e.Nfactor.Model.residual_match <> [];
              p_entry = e;
            })
      model.Nfactor.Model.entries
    |> List.filter_map Fun.id
  in
  (* 2. Shared-subterm analysis. Terms are hash-consed, so one pass
     over every expression the plan will evaluate (literal atoms,
     emits, updates) counts how many places reference each node; a
     compound node referenced twice or more gets a per-step value
     cache (see [cached]) so dispatch keys, match literals and updates
     that share structure — flow-key tuples, dict probes — evaluate it
     once per packet. The wrap memo also shares the compiled closure
     itself per term id. *)
  let refs : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let rec count e =
    let id = Sexpr.id e in
    match Hashtbl.find_opt refs id with
    | Some n -> Hashtbl.replace refs id (n + 1)
    | None -> (
        Hashtbl.add refs id 1;
        match Sexpr.view e with
        | Sexpr.Const _ | Sexpr.Sym _ -> ()
        | Sexpr.Bin (_, a, b) | Sexpr.Get (a, b) ->
            count a;
            count b
        | Sexpr.Not a | Sexpr.Neg a -> count a
        | Sexpr.Tup es | Sexpr.Lst es | Sexpr.Ufun (_, es) -> List.iter count es
        | Sexpr.Mem (d, k) | Sexpr.Dget (d, k) ->
            List.iter
              (fun (wk, u) ->
                count wk;
                Option.iter count u)
              d.Sexpr.writes;
            count k
        | Sexpr.Ite (g, a, b) ->
            count g;
            count a;
            count b)
  in
  List.iter
    (fun p ->
      List.iter (fun (l : Solver.literal) -> count l.Solver.atom) p.p_lits;
      (match p.p_entry.Nfactor.Model.pkt_action with
      | Nfactor.Model.Drop -> ()
      | Nfactor.Model.Forward snaps ->
          List.iter (List.iter (fun (_, e) -> count e)) snaps);
      List.iter
        (fun (_, u) ->
          match u with
          | Nfactor.Model.Set_scalar e -> count e
          | Nfactor.Model.Dict_ops ops ->
              List.iter
                (fun (k, op) ->
                  count k;
                  Option.iter count op)
                ops)
        p.p_entry.Nfactor.Model.state_update)
    pres;
  let wrapped : (int, valfn) Hashtbl.t = Hashtbl.create 256 in
  (* In [shared] mode the per-step value memo is omitted: its
     (store, clock, value) refs are the only mutable state a compiled
     plan carries, and several domains stepping one plan would race on
     them. Closure sharing per term id stays — closures themselves are
     immutable. Everything else in a plan (literal table, dispatch
     nodes, VHash tables) is built here and only read at run time. *)
  let wrap e thunk =
    let id = Sexpr.id e in
    match Hashtbl.find_opt wrapped id with
    | Some f -> f
    | None ->
        let raw = thunk () in
        let multi =
          match Hashtbl.find_opt refs id with Some n -> n >= 2 | None -> false
        in
        let compound =
          match Sexpr.view e with
          | Sexpr.Const _ | Sexpr.Sym _ -> false
          | _ -> true
        in
        let f = if multi && compound && not shared then cached raw else raw in
        Hashtbl.add wrapped id f;
        f
  in
  let cexpr e = gen_expr ~wrap ~pkt_var e in
  (* 3. Literal slots: one compiled closure per distinct literal. *)
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let fns_rev = ref [] in
  let nslots = ref 0 in
  let slot (l : Solver.literal) =
    let key = Solver.lit_key l in
    match Hashtbl.find_opt slot_of key with
    | Some s -> s
    | None ->
        let s = !nslots in
        incr nslots;
        Hashtbl.add slot_of key s;
        fns_rev :=
          literal_matcher (cexpr l.Solver.atom) ~positive:l.Solver.positive
          :: !fns_rev;
        s
  in
  let max_uslots = ref 0 in
  let centry_of ?(consumed = []) (p : pre) =
    let slots =
      List.filter_map
        (fun (l : Solver.literal) ->
          if List.mem (Solver.lit_key l) consumed then None else Some (slot l))
        p.p_lits
    in
    (* a literal tested twice in one entry yields the same verdict;
       keep the first occurrence only *)
    let seen = Hashtbl.create 8 in
    let slots =
      List.filter
        (fun s ->
          if Hashtbl.mem seen s then false
          else begin
            Hashtbl.add seen s ();
            true
          end)
        slots
    in
    let updates = compile_updates ~cexpr p.p_entry.Nfactor.Model.state_update in
    let uslots : int =
      List.fold_left
        (fun acc (u, _) ->
          match u with
          | CSet _ -> acc + 1
          | CDict (_, ops) ->
              List.fold_left
                (fun a (_, v) -> a + (match v with Some _ -> 2 | None -> 1))
                acc ops)
        0 updates
    in
    if uslots > !max_uslots then max_uslots := uslots;
    {
      eidx = p.p_eidx;
      scan = p.p_scan;
      slots = Array.of_list slots;
      emit = compile_action ~cexpr ~pkt_var p.p_entry.Nfactor.Model.pkt_action;
      updates;
      uslots;
    }
  in
  (* 4. Decision-structure construction. A candidate is an entry plus
     the set of its literals already decided (consumed) by the nodes
     above it. Each node picks the discriminator constraining the most
     candidates, enumerates its value classes, decides every node
     literal per class via [literal_verdict] (false ⇒ the entry cannot
     match, drop it; all true ⇒ consume them), and recurses. Filtering
     keeps candidate order, so each leaf is an order-preserving subset
     of the entry list and first-match-wins survives: an entry dropped
     on a class has a literal the interpreter would also find false.
     Residual-match entries pass through every class untouched — they
     are scanned, never dispatched. Identical residual candidate sets
     share subtrees through a signature memo; a node budget bounds
     pathological models. *)
  let cls_of : (int, int * disc * shape * bool) Hashtbl.t = Hashtbl.create 64 in
  let cls (l : Solver.literal) =
    let lk = Solver.lit_key l in
    match Hashtbl.find_opt cls_of lk with
    | Some c -> c
    | None ->
        let d, sh = classify ~model ~config l in
        let c = (lk, d, sh, l.Solver.positive) in
        Hashtbl.add cls_of lk c;
        c
  in
  let is_ordered = function
    | Scmp (op, _) -> not (op = Nfl.Ast.Eq || op = Nfl.Ast.Ne)
    | Smem | Sbool -> false
  in
  (* Value dispatch on ordered comparisons needs integer cuts; in
     range mode, literals against non-integer constants stay as leaf
     tests. Without ordered literals, a hash on the constants takes
     everything ([Value.equal] is total). *)
  let mode_and_included d lits =
    match d with
    | Kbool _ -> (`Bool, lits)
    | Kstate _ | Kexpr _ ->
        if List.exists (fun (_, sh, _) -> is_ordered sh) lits then
          ( `Range,
            List.filter
              (fun (_, sh, _) ->
                match sh with
                | Scmp (_, Value.Int _) | Smem -> true
                | _ -> false)
              lits )
        else (`Hash, lits)
  in
  let memo : ((int * int list) list, dnode) Hashtbl.t = Hashtbl.create 64 in
  let budget = ref 20_000 in
  let n_state = ref 0
  and n_hash = ref 0
  and n_range = ref 0
  and n_bool = ref 0
  and n_leaves = ref 0 in
  let mk_leaf cands =
    incr n_leaves;
    Leaf
      (Array.of_list
         (List.map (fun (p, consumed) -> centry_of ~consumed p) cands))
  in
  let rec build cands =
    let signature = List.map (fun (p, consumed) -> (p.p_eidx, consumed)) cands in
    match Hashtbl.find_opt memo signature with
    | Some n -> n
    | None ->
        let n = construct cands in
        Hashtbl.add memo signature n;
        n
  and construct cands =
    (* distinct discriminators over unconsumed literals, in
       first-encounter order, each with its distinct literals *)
    let discs = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (p, consumed) ->
        if not p.p_scan then
          List.iter
            (fun l ->
              let lk, d, sh, pos = cls l in
              if not (List.mem lk consumed) then
                let dk = disc_key d in
                match Hashtbl.find_opt discs dk with
                | None ->
                    Hashtbl.add discs dk (d, ref [ (lk, sh, pos) ]);
                    order := dk :: !order
                | Some (_, lits) ->
                    if not (List.exists (fun (lk', _, _) -> lk' = lk) !lits)
                    then lits := (lk, sh, pos) :: !lits)
            p.p_lits)
      cands;
    (* a candidate's included literals for one discriminator *)
    let cand_lits dk inc_keys (p, consumed) =
      if p.p_scan then []
      else
        List.fold_left
          (fun acc l ->
            let lk, d, sh, pos = cls l in
            if
              disc_key d = dk && List.mem lk inc_keys
              && (not (List.mem lk consumed))
              && not (List.exists (fun (lk', _, _) -> lk' = lk) acc)
            then (lk, sh, pos) :: acc
            else acc)
          [] p.p_lits
        |> List.rev
    in
    (* pick the discriminator constraining the most candidates *)
    let best =
      List.fold_left
        (fun best dk ->
          let d, lits = Hashtbl.find discs dk in
          let mode, included = mode_and_included d (List.rev !lits) in
          let inc_keys = List.map (fun (lk, _, _) -> lk) included in
          let score =
            List.length
              (List.filter (fun c -> cand_lits dk inc_keys c <> []) cands)
          in
          match best with
          | Some (_, _, _, _, s) when s >= score -> best
          | _ when score = 0 -> best
          | _ -> Some (dk, d, mode, inc_keys, score))
        None (List.rev !order)
    in
    match best with
    | None -> mk_leaf cands
    | Some _ when !budget <= 0 -> mk_leaf cands
    | Some (dk, d, mode, inc_keys, _) ->
        decr budget;
        let kids = ref [] in
        let nkids = ref 0 in
        let restrict vc =
          List.filter_map
            (fun ((p, consumed) as cand) ->
              match cand_lits dk inc_keys cand with
              | [] -> Some cand
              | lits ->
                  if
                    List.for_all
                      (fun (_, sh, pos) -> literal_verdict sh ~positive:pos vc)
                      lits
                  then
                    Some
                      ( p,
                        List.sort_uniq compare
                          (List.map (fun (lk, _, _) -> lk) lits @ consumed) )
                  else None)
            cands
        in
        let child vc =
          let node = build (restrict vc) in
          match List.find_opt (fun (_, n) -> n == node) !kids with
          | Some (i, _) -> i
          | None ->
              let i = !nkids in
              kids := (i, node) :: !kids;
              incr nkids;
              i
        in
        let consts_of () =
          List.fold_left
            (fun acc l ->
              match l with
              | _, Scmp (_, c), _ when not (List.exists (Value.equal c) acc) ->
                  c :: acc
              | _ -> acc)
            []
            (List.filter
               (fun (lk, _, _) -> List.mem lk inc_keys)
               (let _, lits = Hashtbl.find discs dk in
                List.rev !lits))
          |> List.rev
        in
        let finish_vdis () =
          match mode with
          | `Bool -> assert false
          | `Hash ->
              let consts = consts_of () in
              let table = Hashtbl.create (2 * List.length consts + 1) in
              List.iter
                (fun c ->
                  if not (Hashtbl.mem table c) then
                    Hashtbl.add table c (child (Cpoint c)))
                consts;
              VHash { table; other = child Cother }
          | `Range ->
              let cuts =
                List.filter_map
                  (function Value.Int n -> Some n | _ -> None)
                  (consts_of ())
                |> List.sort_uniq compare
                |> Array.of_list
              in
              let k = Array.length cuts in
              let classes = Array.make ((2 * k) + 1) 0 in
              for s = 0 to 2 * k do
                classes.(s) <-
                  (if s land 1 = 1 then child (Cpoint (Value.Int cuts.(s / 2)))
                   else
                     let i = s / 2 in
                     let lo = if i = 0 then None else Some cuts.(i - 1) in
                     let hi = if i = k then None else Some cuts.(i) in
                     child (Cgap (lo, hi)))
              done;
              VRange { cuts; classes; non_int = child Cnonint }
        in
        let mk_children () =
          Array.init !nkids (fun i ->
              snd (List.find (fun (j, _) -> j = i) !kids))
        in
        (match d with
        | Kbool e ->
            incr n_bool;
            let truthy = child Ctruthy in
            let falsy = child Cfalsy in
            let nonbool = child Cnonbool in
            let unres = child Cunres in
            Dbool
              {
                expr = cexpr e;
                src = e;
                truthy;
                falsy;
                nonbool;
                unres;
                children = mk_children ();
              }
        | Kstate (base, key) ->
            incr n_state;
            let vdis = finish_vdis () in
            let absent = child Cabsent in
            let unres = child Cunres in
            Dstate
              {
                base;
                key = cexpr key;
                key_src = key;
                vdis;
                absent;
                unres;
                children = mk_children ();
              }
        | Kexpr e ->
            (match mode with `Range -> incr n_range | _ -> incr n_hash);
            let vdis = finish_vdis () in
            let unres = child Cunres in
            Dexpr
              {
                expr = cexpr e;
                src = e;
                vdis;
                unres;
                children = mk_children ();
              })
  in
  let scanned = List.length (List.filter (fun p -> p.p_scan) pres) in
  let root = build (List.map (fun p -> (p, [])) pres) in
  let live_idx = Array.make (Nfactor.Model.entry_count model) false in
  List.iter (fun p -> live_idx.(p.p_eidx) <- true) pres;
  {
    model;
    lit_fns = Array.of_list (List.rev !fns_rev);
    root;
    live = List.length pres;
    live_idx;
    shared;
    indexed = (match root with Leaf _ -> 0 | _ -> List.length pres - scanned);
    scanned;
    dropped_static = Nfactor.Model.entry_count model - List.length pres;
    nodes =
      {
        n_state = !n_state;
        n_hash = !n_hash;
        n_range = !n_range;
        n_bool = !n_bool;
        n_leaves = !n_leaves;
      };
    max_uslots = !max_uslots;
  }

let pp_plan ppf t =
  Fmt.pf ppf
    "%s: %d/%d entries live (%d statically dropped), %d dispatched, %d scan-only; \
     nodes: %d state, %d hash, %d range, %d bool, %d leaves; %d literal slot(s)"
    t.model.Nfactor.Model.nf_name t.live
    (Nfactor.Model.entry_count t.model)
    t.dropped_static t.indexed t.scanned t.nodes.n_state t.nodes.n_hash
    t.nodes.n_range t.nodes.n_bool t.nodes.n_leaves
    (Array.length t.lit_fns)
