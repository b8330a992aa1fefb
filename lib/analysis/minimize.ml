open Nfactor
open Symexec

type outcome = {
  original : Model.t;
  minimized : Model.t;
  deleted_dead : int;
  deleted_shadowed : int;
  merged : int;
  widened_literals : int;
  iterations : int;
  verified : bool;
  trials : int;
}

let default_pkts () =
  Verify.Testgen.base_palette
  @ Packet.Traffic.random_stream ~seed:911 ~n:2000 ()
  @ Packet.Traffic.flow_stream ~seed:912 ~flows:50 ~data_pkts:3 ()

let all_lits (e : Model.entry) =
  e.Model.config @ e.Model.flow_match @ e.Model.state_match @ e.Model.residual_match

(* Every proof obligation is a conjunction-unsat question; canonical
   literal-key vectors memoize them across the whole fixpoint run. *)
let make_prover () =
  let memo : (int list, bool) Hashtbl.t = Hashtbl.create 256 in
  fun lits ->
    let key = List.map Solver.lit_key lits |> List.sort_uniq compare in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        let v = Imply.proven_unsat lits in
        Hashtbl.add memo key v;
        v

(* ------------------------------------------------------------------ *)
(* Rewrite rules over the working entry list                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable s_dead : int;
  mutable s_shadowed : int;
  mutable s_merged : int;
  mutable s_widened : int;
}

let delete_dead prove st entries =
  List.filter
    (fun e ->
      if prove (all_lits e) then begin
        st.s_dead <- st.s_dead + 1;
        false
      end
      else true)
    entries

(* Entry [j] is removable when some earlier entry's whole match
   (residuals included) is implied by [j]'s: the earlier entry fires
   first on every packet [j] could claim. *)
let delete_shadowed prove st entries =
  let rec go kept = function
    | [] -> List.rev kept
    | e :: rest ->
        let lits_e = all_lits e in
        let shadowed =
          List.exists
            (fun earlier ->
              List.for_all
                (fun l -> prove (lits_e @ [ Imply.negate l ]))
                (all_lits earlier))
            kept
        in
        if shadowed then begin
          st.s_shadowed <- st.s_shadowed + 1;
          go kept rest
        end
        else go (e :: kept) rest
  in
  go [] entries

(* Drop one literal [l] from a component list when either
   - the rest of the entry implies [l] (the literal is redundant), or
   - every packet gained by dropping it is proven to match some
     earlier entry, which fires first both before and after. *)
let widen_entry prove st earlier (e : Model.entry) =
  let widen_component lits other_lits =
    let rec go kept = function
      | [] -> List.rev kept
      | l :: rest ->
          let others = List.rev_append kept rest @ other_lits in
          let redundant = prove (others @ [ Imply.negate l ]) in
          let covered_earlier () =
            List.exists
              (fun (earlier_e : Model.entry) ->
                List.for_all
                  (fun l' -> prove (others @ [ Imply.negate l; Imply.negate l' ]))
                  (all_lits earlier_e))
              earlier
          in
          if redundant || covered_earlier () then begin
            st.s_widened <- st.s_widened + 1;
            go kept rest
          end
          else go (l :: kept) rest
    in
    go [] lits
  in
  let flow =
    widen_component e.Model.flow_match
      (e.Model.config @ e.Model.state_match @ e.Model.residual_match)
  in
  let state =
    widen_component e.Model.state_match (e.Model.config @ flow @ e.Model.residual_match)
  in
  let residual =
    widen_component e.Model.residual_match (e.Model.config @ flow @ state)
  in
  { e with Model.flow_match = flow; state_match = state; residual_match = residual }

let widen prove st entries =
  let rec go earlier = function
    | [] -> List.rev earlier
    | e :: rest -> go (widen_entry prove st (List.rev earlier) e :: earlier) rest
  in
  go [] entries

(* --- adjacent merges ---------------------------------------------- *)

let lit_atom (l : Solver.literal) =
  if l.Solver.positive then l.Solver.atom else Sexpr.mk_not l.Solver.atom

let action_repr ~pkt_var (e : Model.entry) =
  Fmt.str "%a|%a"
    (Model.pp_action ~pkt_var)
    e.Model.pkt_action
    Fmt.(list ~sep:(any ";") Model.pp_state_update)
    e.Model.state_update

let keys_of lits = List.map Solver.lit_key lits |> List.sort_uniq compare

(* Split [e]'s match into literals shared with [other] and its own. *)
let split_against other_keys lits =
  List.partition (fun l -> List.mem (Solver.lit_key l) other_keys) lits

(* Two-sided interval literal [lo <= t && t <= hi] for an
   equality-pair union, else the plain disjunction of both sides. *)
let union_literal a b =
  let atom_a = lit_atom a and atom_b = lit_atom b in
  let interval =
    match (Sexpr.view atom_a, Sexpr.view atom_b) with
    | Sexpr.Bin (Nfl.Ast.Eq, ta, ca), Sexpr.Bin (Nfl.Ast.Eq, tb, cb)
      when Sexpr.equal ta tb -> (
        match (Sexpr.const_of ca, Sexpr.const_of cb) with
        | Some (Value.Int x), Some (Value.Int y) when abs (x - y) = 1 ->
            let lo = min x y and hi = max x y in
            Some
              (Sexpr.mk_bin Nfl.Ast.And
                 (Sexpr.mk_bin Nfl.Ast.Ge ta (Sexpr.const (Value.Int lo)))
                 (Sexpr.mk_bin Nfl.Ast.Le ta (Sexpr.const (Value.Int hi))))
        | _ -> None)
    | _ -> None
  in
  match interval with
  | Some atom -> Solver.lit atom true
  | None -> Solver.lit (Sexpr.mk_bin Nfl.Ast.Or atom_a atom_b) true

(* Place a synthesized literal in the right match component. *)
let add_classified (m : Model.t) (e : Model.entry) l =
  match
    Extract.classify_literal ~pkt_var:m.Model.pkt_var ~cfg_vars:m.Model.cfg_vars
      ~ois_vars:m.Model.ois_vars l
  with
  | Extract.L_config -> { e with Model.config = e.Model.config @ [ l ] }
  | Extract.L_flow -> { e with Model.flow_match = e.Model.flow_match @ [ l ] }
  | Extract.L_state -> { e with Model.state_match = e.Model.state_match @ [ l ] }
  | Extract.L_other ->
      { e with Model.residual_match = e.Model.residual_match @ [ l ] }

(* Merge adjacent [a; b] (same action, same config, residual-free,
   single differing literal each) into one entry whose match is the
   exact union of the two. *)
let try_merge prove (m : Model.t) (a : Model.entry) (b : Model.entry) =
  let pkt_var = m.Model.pkt_var in
  if
    a.Model.residual_match <> []
    || b.Model.residual_match <> []
    || not (String.equal (action_repr ~pkt_var a) (action_repr ~pkt_var b))
    || keys_of a.Model.config <> keys_of b.Model.config
  then None
  else
    let keys_b = keys_of (all_lits b) and keys_a = keys_of (all_lits a) in
    let common_flow, a_flow = split_against keys_b a.Model.flow_match in
    let common_state, a_state = split_against keys_b a.Model.state_match in
    let _, b_flow = split_against keys_a b.Model.flow_match in
    let _, b_state = split_against keys_a b.Model.state_match in
    match (a_flow @ a_state, b_flow @ b_state) with
    | [ la ], [ lb ] ->
        let base =
          {
            a with
            Model.flow_match = common_flow;
            state_match = common_state;
            path_sids =
              List.sort_uniq compare (a.Model.path_sids @ b.Model.path_sids);
            truncated = a.Model.truncated || b.Model.truncated;
          }
        in
        let common = a.Model.config @ common_flow @ common_state in
        if prove (common @ [ Imply.negate la; Imply.negate lb ]) then
          (* the union covers the whole common region: wildcard *)
          Some base
        else
          let u = union_literal la lb in
          (* [u] must be the exact union: both sides imply it, and
             within the common region it implies one of the sides. *)
          if
            prove (common @ [ la; Imply.negate u ])
            && prove (common @ [ lb; Imply.negate u ])
            && prove (common @ [ u; Imply.negate la; Imply.negate lb ])
          then Some (add_classified m base u)
          else None
    | _ -> None

let merge_adjacent prove st (m : Model.t) entries =
  let rec go kept = function
    | a :: b :: rest -> (
        match try_merge prove m a b with
        | Some merged ->
            st.s_merged <- st.s_merged + 1;
            go kept (merged :: rest)
        | None -> go (a :: kept) (b :: rest))
    | last -> List.rev_append kept last
  in
  go [] entries

(* ------------------------------------------------------------------ *)
(* Fixpoint + differential gate                                       *)
(* ------------------------------------------------------------------ *)

let reduction o =
  let before = Model.entry_count o.original in
  if before = 0 then 0.0
  else float_of_int (before - Model.entry_count o.minimized) /. float_of_int before

(* The differential gate on the compiled dataplane: both tables step
   through [pkts] in lock step from [store], and must agree on every
   packet's outputs and on the final store. The engine is checked
   against [Model_interp] corpus-wide, and runs these packets one to
   three orders of magnitude faster. *)
let gate ~store ~pkts (a : Model.t) (b : Model.t) =
  let engine m = Nfactor_runtime.Engine.of_model m ~config:store ~store in
  let ea = engine a and eb = engine b in
  List.for_all
    (fun p ->
      let oa = (Nfactor_runtime.Engine.step ea p).Nfactor_runtime.Engine.outputs in
      let ob = (Nfactor_runtime.Engine.step eb p).Nfactor_runtime.Engine.outputs in
      List.equal Packet.Pkt.equal oa ob)
    pkts
  && Model_interp.Smap.equal Value.equal
       (Nfactor_runtime.Engine.snapshot ea)
       (Nfactor_runtime.Engine.snapshot eb)

let run ?pkts ~store (m : Model.t) =
  let prove = make_prover () in
  let reduce ~widening =
    let st = { s_dead = 0; s_shadowed = 0; s_merged = 0; s_widened = 0 } in
    let rec fixpoint entries iters =
      if iters >= 20 then (entries, iters)
      else
        let before = (List.length entries, st.s_widened) in
        let entries = delete_dead prove st entries in
        let entries = delete_shadowed prove st entries in
        let entries = if widening then widen prove st entries else entries in
        let entries = merge_adjacent prove st m entries in
        if (List.length entries, st.s_widened) = before then (entries, iters + 1)
        else fixpoint entries (iters + 1)
    in
    let entries, iterations = fixpoint m.Model.entries 0 in
    (entries, iterations, st)
  in
  (* Widening is speculative: dropping a match literal can only help
     when it unlocks a merge or a shadow deletion — kept for its own
     sake it makes entries *slower* to evaluate (the dropped literal
     is usually the cheap early-exit one, leaving membership/payload
     checks to run on more packets). So reduce twice, with and without
     the widening rule, and keep widenings only when they bought
     strictly fewer entries. *)
  let lean_entries, lean_iters, lean_st = reduce ~widening:false in
  let full_entries, full_iters, full_st = reduce ~widening:true in
  let entries, iterations, st =
    if List.length full_entries < List.length lean_entries then
      (full_entries, full_iters, full_st)
    else (lean_entries, lean_iters, lean_st)
  in
  let outcome ~minimized ~verified ~trials =
    {
      original = m;
      minimized;
      deleted_dead = st.s_dead;
      deleted_shadowed = st.s_shadowed;
      merged = st.s_merged;
      widened_literals = st.s_widened;
      iterations;
      verified;
      trials;
    }
  in
  (* Every rule counts each rewrite it applies, so no count means the
     fixpoint returned the original entries: nothing to gate. *)
  if st.s_dead + st.s_shadowed + st.s_merged + st.s_widened = 0 then
    outcome ~minimized:m ~verified:true ~trials:0
  else
    let candidate = { m with Model.entries } in
    let pkts = match pkts with Some p -> p | None -> default_pkts () in
    let ok = gate ~store ~pkts m candidate in
    outcome ~minimized:(if ok then candidate else m) ~verified:ok ~trials:(List.length pkts)
