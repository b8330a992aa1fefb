(* Static linking of compiled plans into one chain plan: per-hop state
   namespacing, link-time partial evaluation of downstream dispatch
   trees (hop fusion), and the chain-level sharding gate. See the
   interface for the soundness argument. *)

open Symexec
module Smap = Nfactor.Model_interp.Smap
module Sset = Sexpr.Sset

type hop = {
  h_id : string;
  h_prefix : string;
  h_model : Nfactor.Model.t;
  h_source : Nfactor.Model.t;
  h_store : Nfactor.Model_interp.store;
  h_plan : Compile.t;
  h_spec : Shardplan.spec;
}

type t = {
  hops : hop array;
  store0 : Nfactor.Model_interp.store;
  starts : Compile.dnode array array array;
  sources : (string * Nfactor.Model.t * Nfactor.Model_interp.store) list;
  shared : bool;
  fused_entries : int;
  fused_nodes : int;
}

(* ------------------------------------------------------------------ *)
(* Namespacing                                                        *)
(* ------------------------------------------------------------------ *)

(* Rename every occurrence of a hop variable — free symbols and
   dictionary bases — under [prefix]. [subst_sym] cannot do this alone
   because dictionary bases are raw strings, not symbols, so the walk
   is by hand. Packet symbols ([<pkt_var>.<field>]) are never in
   [vars] and pass through: fields are chain-global by design. *)
let rename_term ~vars ~prefix e =
  let rn_name s = if Sset.mem s vars then prefix ^ s else s in
  let rec rn e =
    match Sexpr.view e with
    | Sexpr.Const _ -> e
    | Sexpr.Sym s -> if Sset.mem s vars then Sexpr.sym (prefix ^ s) else e
    | Sexpr.Bin (op, a, b) -> Sexpr.mk_bin op (rn a) (rn b)
    | Sexpr.Not a -> Sexpr.mk_not (rn a)
    | Sexpr.Neg a -> Sexpr.mk_neg (rn a)
    | Sexpr.Tup es -> Sexpr.mk_tuple (List.map rn es)
    | Sexpr.Lst es -> Sexpr.mk_list (List.map rn es)
    | Sexpr.Get (a, b) -> Sexpr.mk_get (rn a) (rn b)
    | Sexpr.Ufun (f, es) -> Sexpr.mk_ufun f (List.map rn es)
    | Sexpr.Mem (d, k) -> Sexpr.mk_mem (rn_dict d) (rn k)
    | Sexpr.Dget (d, k) -> Sexpr.mk_dget (rn_dict d) (rn k)
    | Sexpr.Ite (g, a, b) -> Sexpr.mk_ite (rn g) (rn a) (rn b)
  and rn_dict (d : Sexpr.dict_state) =
    {
      Sexpr.base = rn_name d.Sexpr.base;
      writes =
        List.map (fun (k, v) -> (rn k, Option.map rn v)) d.Sexpr.writes;
    }
  in
  rn e

let rename_model ~prefix (m : Nfactor.Model.t) =
  let vars =
    List.fold_left
      (fun acc v -> Sset.add v acc)
      Sset.empty
      (m.Nfactor.Model.cfg_vars @ m.Nfactor.Model.ois_vars)
  in
  let rn = rename_term ~vars ~prefix in
  let rn_name s = if Sset.mem s vars then prefix ^ s else s in
  let rn_lit (l : Solver.literal) = Solver.lit (rn l.Solver.atom) l.Solver.positive in
  let rn_lits = List.map rn_lit in
  let rn_entry (e : Nfactor.Model.entry) =
    {
      e with
      Nfactor.Model.config = rn_lits e.Nfactor.Model.config;
      flow_match = rn_lits e.Nfactor.Model.flow_match;
      state_match = rn_lits e.Nfactor.Model.state_match;
      residual_match = rn_lits e.Nfactor.Model.residual_match;
      pkt_action =
        (match e.Nfactor.Model.pkt_action with
        | Nfactor.Model.Drop -> Nfactor.Model.Drop
        | Nfactor.Model.Forward snaps ->
            Nfactor.Model.Forward
              (List.map (List.map (fun (f, x) -> (f, rn x))) snaps));
      state_update =
        List.map
          (fun (name, u) ->
            ( rn_name name,
              match u with
              | Nfactor.Model.Set_scalar x -> Nfactor.Model.Set_scalar (rn x)
              | Nfactor.Model.Dict_ops ops ->
                  Nfactor.Model.Dict_ops
                    (List.map (fun (k, v) -> (rn k, Option.map rn v)) ops) ))
          e.Nfactor.Model.state_update;
    }
  in
  {
    m with
    Nfactor.Model.cfg_vars = List.map (fun v -> prefix ^ v) m.Nfactor.Model.cfg_vars;
    ois_vars = List.map (fun v -> prefix ^ v) m.Nfactor.Model.ois_vars;
    entries = List.map rn_entry m.Nfactor.Model.entries;
  }

let rename_store ~prefix store =
  Smap.fold (fun k v acc -> Smap.add (prefix ^ k) v acc) store Smap.empty

(* ------------------------------------------------------------------ *)
(* Hop fusion                                                         *)
(* ------------------------------------------------------------------ *)

(* Names some chain entry's state transition targets (scalar sets and
   dictionary operations alike, all hops). A term mentioning any of
   them is runtime-mutable and never link-time evaluated; everything
   else in a store keeps its initial value for the whole run. *)
let written_names hops =
  Array.fold_left
    (fun acc h ->
      List.fold_left
        (fun acc (e : Nfactor.Model.entry) ->
          List.fold_left
            (fun acc (name, _) -> Sset.add name acc)
            acc e.Nfactor.Model.state_update)
        acc h.h_model.Nfactor.Model.entries)
    Sset.empty hops

(* The statically-known rewrites of one forward snapshot: fields whose
   value expression reads no packet field and nothing runtime-mutable,
   evaluated against the merged initial store. *)
let static_rewrites ~store0 ~written (up : hop) snap =
  let pkt_var = up.h_model.Nfactor.Model.pkt_var in
  let pkt_prefix = pkt_var ^ "." in
  List.filter_map
    (fun (f, e) ->
      let constant =
        Sset.for_all
          (fun s ->
            (not (String.starts_with ~prefix:pkt_prefix s))
            && not (Sset.mem s written))
          (Sexpr.syms e)
      in
      if not constant then None
      else
        match
          Nfactor.Model_interp.eval ~pkt_var store0 Nfactor.Model_interp.null_pkt e
        with
        | v -> Some (f, v)
        | exception (Value.Type_error _ | Nfactor.Model_interp.Unresolved _) ->
            None)
    snap

(* Partially evaluate [dn]'s dispatch tree under pinned packet fields:
   descend while the node's source term reads only pinned fields and
   run-constant store names, routing exactly as the engine would —
   including evaluation failures, which take the node's unresolved
   (or non-bool) class. State nodes always stop the descent: their
   branch depends on runtime flow state. *)
let advance ~store0 ~written (dn : hop) statics =
  if statics = [] then (dn.h_plan.Compile.root, 0)
  else
    let pkt_var = dn.h_model.Nfactor.Model.pkt_var in
    let pkt_prefix = pkt_var ^ "." in
    let plen = String.length pkt_prefix in
    let probe =
      try
        Some
          (List.fold_left
             (fun p (f, v) ->
               match (v : Value.t) with
               | Value.Int n -> Packet.Pkt.set_int p f n
               | Value.Str s -> Packet.Pkt.set_str p f s
               | _ -> raise Exit)
             Nfactor.Model_interp.null_pkt statics)
      with Exit | Invalid_argument _ -> None
    in
    match probe with
    | None -> (dn.h_plan.Compile.root, 0)
    | Some probe ->
        let decidable src =
          Sset.for_all
            (fun s ->
              if String.starts_with ~prefix:pkt_prefix s then
                List.mem_assoc (String.sub s plen (String.length s - plen)) statics
              else not (Sset.mem s written))
            (Sexpr.syms src)
        in
        let rec go (node : Compile.dnode) depth =
          match node with
          | Compile.Leaf _ | Compile.Dstate _ -> (node, depth)
          | Compile.Dexpr { src; vdis; unres; children; _ } ->
              if not (decidable src) then (node, depth)
              else
                let idx =
                  match Nfactor.Model_interp.eval ~pkt_var store0 probe src with
                  | v -> Engine.class_index vdis v
                  | exception
                      (Value.Type_error _ | Nfactor.Model_interp.Unresolved _) ->
                      unres
                in
                go children.(idx) (depth + 1)
          | Compile.Dbool { src; truthy; falsy; nonbool; unres; children; _ } ->
              if not (decidable src) then (node, depth)
              else
                let idx =
                  match Nfactor.Model_interp.eval ~pkt_var store0 probe src with
                  | Value.Bool true -> truthy
                  | Value.Bool false -> falsy
                  | Value.Int n -> if n <> 0 then truthy else falsy
                  | _ -> nonbool
                  | exception
                      (Value.Type_error _ | Nfactor.Model_interp.Unresolved _) ->
                      unres
                in
                go children.(idx) (depth + 1)
        in
        go dn.h_plan.Compile.root 0

let compute_starts ~store0 ~written hops =
  let n = Array.length hops in
  let fused_entries = ref 0 and fused_nodes = ref 0 in
  let starts =
    Array.init
      (max 0 (n - 1))
      (fun i ->
        let up = hops.(i) and dn = hops.(i + 1) in
        let entries = Array.of_list up.h_model.Nfactor.Model.entries in
        Array.init (Array.length entries) (fun e ->
            if not up.h_plan.Compile.live_idx.(e) then [||]
            else
              match entries.(e).Nfactor.Model.pkt_action with
              | Nfactor.Model.Drop -> [||]
              | Nfactor.Model.Forward snaps ->
                  Array.of_list
                    (List.map
                       (fun snap ->
                         let statics = static_rewrites ~store0 ~written up snap in
                         let node, depth = advance ~store0 ~written dn statics in
                         if depth > 0 then begin
                           incr fused_entries;
                           fused_nodes := !fused_nodes + depth
                         end;
                         node)
                       snaps)))
  in
  (starts, !fused_entries, !fused_nodes)

(* ------------------------------------------------------------------ *)
(* Linking                                                            *)
(* ------------------------------------------------------------------ *)

let mk_hop ~id ~prefix ~source h_store (h_plan : Compile.t) =
  let h_model = h_plan.Compile.model in
  {
    h_id = id;
    h_prefix = prefix;
    h_model;
    h_source = source;
    h_store;
    h_plan;
    h_spec = Shardplan.analyze h_model ~config:h_store ~live:h_plan.Compile.live_idx;
  }

let link ?(shared = false) sources =
  if sources = [] then invalid_arg "Chainplan.link: empty chain";
  let seen = Hashtbl.create 8 in
  let uniq id =
    match Hashtbl.find_opt seen id with
    | None ->
        Hashtbl.add seen id 1;
        id
    | Some k ->
        Hashtbl.replace seen id (k + 1);
        Printf.sprintf "%s#%d" id k
  in
  let hops =
    List.mapi
      (fun i (id, m, store) ->
        let prefix = Printf.sprintf "h%d:" i in
        let h_model = rename_model ~prefix m in
        let h_store = rename_store ~prefix store in
        mk_hop ~id:(uniq id) ~prefix ~source:m h_store
          (Compile.compile ~shared h_model ~config:h_store))
      sources
    |> Array.of_list
  in
  let store0 =
    Array.fold_left
      (fun acc h -> Smap.union (fun _ a _ -> Some a) acc h.h_store)
      Smap.empty hops
  in
  let written = written_names hops in
  let starts, fused_entries, fused_nodes = compute_starts ~store0 ~written hops in
  { hops; store0; starts; sources; shared; fused_entries; fused_nodes }

let of_plan ~id (plan : Compile.t) store =
  let m = plan.Compile.model in
  {
    hops = [| mk_hop ~id ~prefix:"" ~source:m store plan |];
    store0 = store;
    starts = [||];
    sources = [ (id, m, store) ];
    shared = plan.Compile.shared;
    fused_entries = 0;
    fused_nodes = 0;
  }

let n_hops t = Array.length t.hops
let hop_ids t = Array.to_list (Array.map (fun h -> h.h_id) t.hops)

let split_store t merged =
  Array.to_list t.hops
  |> List.map (fun h ->
         let plen = String.length h.h_prefix in
         let s =
           Smap.fold
             (fun k v acc ->
               if String.starts_with ~prefix:h.h_prefix k then
                 Smap.add (String.sub k plen (String.length k - plen)) v acc
               else acc)
             merged Smap.empty
         in
         (h.h_id, s))

(* ------------------------------------------------------------------ *)
(* Chain-level sharding gate                                          *)
(* ------------------------------------------------------------------ *)

let shard_spec t =
  let obstruction = ref None in
  let reject e = if !obstruction = None then obstruction := Some e in
  Array.iter
    (fun h ->
      (match Shardplan.global_names h.h_spec with
      | [] -> ()
      | g ->
          reject
            (Printf.sprintf "hop %s keeps global table(s) %s in shared state"
               h.h_id (String.concat ", " g)));
      let ns = Shardplan.n_serial h.h_spec in
      if ns > 0 then
        reject
          (Printf.sprintf "hop %s has %d serial entr%s" h.h_id ns
             (if ns = 1 then "y" else "ies")))
    t.hops;
  let stateful =
    List.filter
      (fun h -> Shardplan.sharded_names h.h_spec <> [])
      (Array.to_list t.hops)
  in
  (match stateful with
  | [] -> ()
  | h0 :: rest ->
      let key = h0.h_spec.Shardplan.key_fields in
      List.iter
        (fun h ->
          if h.h_spec.Shardplan.key_fields <> key then
            reject
              (Printf.sprintf
                 "hops %s and %s shard on different flow keys ([%s] vs [%s])"
                 h0.h_id h.h_id
                 (String.concat ", " key)
                 (String.concat ", " h.h_spec.Shardplan.key_fields)))
        rest;
      (* a hop rewriting a key field would re-route downstream accesses
         of the same flow to a different shard than its state lives on *)
      Array.iter
        (fun h ->
          match
            List.filter
              (fun f -> List.mem f key)
              (Nfactor.Model.modified_fields h.h_source)
          with
          | [] -> ()
          | bad ->
              reject
                (Printf.sprintf "hop %s rewrites flow-key field(s) %s" h.h_id
                   (String.concat ", " bad)))
        t.hops);
  match !obstruction with
  | Some e -> Error e
  | None -> (
      match stateful with
      | [] -> Ok t.hops.(0).h_spec
      | h :: _ -> Ok h.h_spec)

let pp ppf t =
  Fmt.pf ppf "chain %s: %d hop(s), %d fused entry snapshot(s) (%d node(s) pre-decided)"
    (String.concat " -> " (hop_ids t))
    (n_hops t) t.fused_entries t.fused_nodes;
  Array.iter (fun h -> Fmt.pf ppf "@.  %a" Compile.pp_plan h.h_plan) t.hops
