(** Model serialization.

    The paper's deployment story has NF vendors running NFactor on
    proprietary code and shipping {e only the model} to operators.
    This module is that interchange format: a small s-expression
    encoding of {!Model.t} with a total parser, so models round-trip
    through files and can be consumed by external verification
    tooling. Its term table is also the one the pipeline's cached
    artifacts use.

    Terms are hash-consed with session-local ids ({!Sexpr.id}), so the
    encoding is purely structural: writing renders each distinct term
    once into a topologically ordered table, and parsing folds that
    table through the interning smart constructors, so a parsed
    model's terms are unique representatives in the {e reader's}
    intern table whatever process wrote the file.

    The format is self-describing and versioned:

    {v
    (nfactor-model (version 3)
      (terms (y pkt.dport) (c (i 80)) (b == 0 1) ...)
      (name lb) (pkt-var pkt) (cfg-vars mode ...) (ois-vars f2b_nat ...)
      (entries (entry (config ...) (flow (+ 2)) (state ...) (residual ...)
                      (action ...) (updates ...) (path ...) (truncated false)) ...))
    v}

    Every expression position in the entries is an index into
    [terms]. Version 1 documents (no [residual] clause) and version 2
    documents (expression trees in place of indices) still parse; the
    writer always emits version 3. *)

open Symexec

(* ------------------------------------------------------------------ *)
(* S-expressions                                                      *)
(* ------------------------------------------------------------------ *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

(* Number and boolean atoms decode through these, so malformed text
   surfaces as the declared [Parse_error], never [Failure] or
   [Invalid_argument]. *)
let int_atom s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> raise (Parse_error ("bad integer: " ^ s))

let bool_atom s =
  match bool_of_string_opt s with
  | Some b -> b
  | None -> raise (Parse_error ("bad boolean: " ^ s))

(* Atom-alphabet membership is the parser's innermost loop; a 256-entry
   table beats re-scanning the punctuation string per character. *)
let atom_char_table =
  let t = Array.make 256 false in
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || String.contains "_.:+*/%<>=!&|#~?@^-" c
  in
  for i = 0 to 255 do
    t.(i) <- ok (Char.chr i)
  done;
  t

let atom_ok_char c = Array.unsafe_get atom_char_table (Char.code c)

let atom_needs_quotes s =
  s = "" || not (String.for_all atom_ok_char s)

let rec print_sexp buf = function
  | Atom s ->
      if atom_needs_quotes s then Buffer.add_string buf (Printf.sprintf "%S" s)
      else Buffer.add_string buf s
  | List items ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ' ';
          print_sexp buf item)
        items;
      Buffer.add_char buf ')'

let sexp_to_string s =
  let buf = Buffer.create 256 in
  print_sexp buf s;
  Buffer.contents buf

let parse_sexp (input : string) =
  let pos = ref 0 in
  let n = String.length input in
  let peek () = if !pos < n then String.unsafe_get input !pos else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      &&
      match String.unsafe_get input !pos with ' ' | '\n' | '\t' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let parse_quoted () =
    advance ();
    (* opening quote *)
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Parse_error "unterminated string")
      else
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | 'r' -> Buffer.add_char b '\r'
            | c when c >= '0' && c <= '9' ->
                (* OCaml-style decimal escape \DDD *)
                let digit () =
                  match peek () with
                  | '0' .. '9' as d -> Char.code d - 48
                  | _ -> raise (Parse_error "bad decimal escape")
                in
                let d1 = digit () in
                advance ();
                let d2 = digit () in
                advance ();
                let d3 = digit () in
                let code = (d1 * 100) + (d2 * 10) + d3 in
                if code > 255 then raise (Parse_error "bad decimal escape");
                Buffer.add_char b (Char.chr code)
            | c -> Buffer.add_char b c);
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Atom (Buffer.contents b)
  in
  let rec parse () =
    skip_ws ();
    if !pos >= n then raise (Parse_error "unexpected end of input")
    else
      match peek () with
      | '(' ->
          advance ();
          let items = ref [] in
          let rec go () =
            skip_ws ();
            if !pos >= n then raise (Parse_error "unterminated list")
            else if peek () = ')' then advance ()
            else begin
              items := parse () :: !items;
              go ()
            end
          in
          go ();
          List (List.rev !items)
      | '"' -> parse_quoted ()
      | ')' -> raise (Parse_error "unexpected ')'")
      | _ ->
          let start = !pos in
          while !pos < n && atom_ok_char (String.unsafe_get input !pos) do
            incr pos
          done;
          if !pos = start then raise (Parse_error (Printf.sprintf "stray character %C" (peek ())));
          Atom (String.sub input start (!pos - start))
  in
  let result = parse () in
  skip_ws ();
  if !pos <> n then raise (Parse_error "trailing input");
  result

(* ------------------------------------------------------------------ *)
(* Value encoding                                                     *)
(* ------------------------------------------------------------------ *)

let rec sexp_of_value = function
  | Value.Int n -> List [ Atom "i"; Atom (string_of_int n) ]
  | Value.Bool b -> List [ Atom "b"; Atom (string_of_bool b) ]
  | Value.Str s -> List [ Atom "s"; Atom s ]
  | Value.Tuple vs -> List (Atom "tuple" :: List.map sexp_of_value vs)
  | Value.List vs -> List (Atom "list" :: List.map sexp_of_value vs)
  | Value.Dict kvs ->
      List
        (Atom "dict"
        :: List.map (fun (k, v) -> List [ sexp_of_value k; sexp_of_value v ]) kvs)
  | Value.Pkt _ -> raise (Parse_error "packets are not serializable model constants")

let rec value_of_sexp = function
  | List [ Atom "i"; Atom n ] -> Value.Int (int_atom n)
  | List [ Atom "b"; Atom b ] -> Value.Bool (bool_atom b)
  | List [ Atom "s"; Atom s ] -> Value.Str s
  | List (Atom "tuple" :: vs) -> Value.Tuple (List.map value_of_sexp vs)
  | List (Atom "list" :: vs) -> Value.List (List.map value_of_sexp vs)
  | List (Atom "dict" :: kvs) ->
      Value.Dict
        (List.map
           (function
             | List [ k; v ] -> (value_of_sexp k, value_of_sexp v)
             | _ -> raise (Parse_error "bad dict pair"))
           kvs)
  | s -> raise (Parse_error ("bad value: " ^ sexp_to_string s))

(* ------------------------------------------------------------------ *)
(* The term table                                                     *)
(* ------------------------------------------------------------------ *)

let binop_name op = Nfl.Pretty.binop_str op

let binop_of_name s =
  let table =
    [
      Nfl.Ast.Add; Nfl.Ast.Sub; Nfl.Ast.Mul; Nfl.Ast.Div; Nfl.Ast.Mod; Nfl.Ast.Eq; Nfl.Ast.Ne;
      Nfl.Ast.Lt; Nfl.Ast.Le; Nfl.Ast.Gt; Nfl.Ast.Ge; Nfl.Ast.And; Nfl.Ast.Or; Nfl.Ast.Band;
      Nfl.Ast.Bor; Nfl.Ast.Shl; Nfl.Ast.Shr;
    ]
  in
  match List.find_opt (fun op -> binop_name op = s) table with
  | Some op -> op
  | None -> raise (Parse_error ("unknown operator " ^ s))

(* Terms are hash-consed, and a model or artifact repeats the same
   subterms across entries and paths (join-point merging makes dpi's
   store a small DAG of ite summaries that a tree rendering expands
   exponentially). Every document therefore carries one topologically
   ordered definition table in which each distinct term appears once;
   every expression position elsewhere is an index into it. *)

type term_enc = {
  mutable defs_rev : sexp list;
  mutable next : int;
  enc_index : (int, int) Hashtbl.t;  (* Sexpr.id -> definition index *)
}

let term_enc () = { defs_rev = []; next = 0; enc_index = Hashtbl.create 256 }

let rec eref enc e =
  match Hashtbl.find_opt enc.enc_index (Sexpr.id e) with
  | Some i -> Atom (string_of_int i)
  | None ->
      (* Children first: definitions only reference smaller indices. *)
      let def =
        match Sexpr.view e with
        | Sexpr.Const v -> List [ Atom "c"; sexp_of_value v ]
        | Sexpr.Sym s -> List [ Atom "y"; Atom s ]
        | Sexpr.Bin (op, a, b) -> List [ Atom "b"; Atom (binop_name op); eref enc a; eref enc b ]
        | Sexpr.Not a -> List [ Atom "n"; eref enc a ]
        | Sexpr.Neg a -> List [ Atom "e"; eref enc a ]
        | Sexpr.Tup es -> List (Atom "t" :: List.map (eref enc) es)
        | Sexpr.Lst es -> List (Atom "l" :: List.map (eref enc) es)
        | Sexpr.Get (a, b) -> List [ Atom "g"; eref enc a; eref enc b ]
        | Sexpr.Ufun (f, args) -> List (Atom "u" :: Atom f :: List.map (eref enc) args)
        | Sexpr.Mem (d, k) -> List [ Atom "m"; dref enc d; eref enc k ]
        | Sexpr.Dget (d, k) -> List [ Atom "d"; dref enc d; eref enc k ]
        | Sexpr.Ite (g, a, b) -> List [ Atom "i"; eref enc g; eref enc a; eref enc b ]
      in
      let i = enc.next in
      enc.next <- i + 1;
      enc.defs_rev <- def :: enc.defs_rev;
      Hashtbl.replace enc.enc_index (Sexpr.id e) i;
      Atom (string_of_int i)

and dref enc (d : Sexpr.dict_state) =
  List
    (Atom d.Sexpr.base
    :: List.map
         (fun (k, v) ->
           match v with
           | Some value -> List [ Atom "s"; eref enc k; eref enc value ]
           | None -> List [ Atom "x"; eref enc k ])
         d.Sexpr.writes)

let terms_sexp enc = List (Atom "terms" :: List.rev enc.defs_rev)

(* Decoding folds the definition table left to right through the smart
   constructors, re-interning in the reader's table; references resolve
   against the already-rebuilt prefix, so a forward or out-of-range
   index is malformed input. *)
type term_dec = { terms : Sexpr.t array; mutable filled : int }

let tref dec = function
  | Atom a ->
      let i = int_atom a in
      if i < 0 || i >= dec.filled then raise (Parse_error ("forward term reference " ^ a))
      else dec.terms.(i)
  | s -> raise (Parse_error ("bad term reference: " ^ sexp_to_string s))

let dict_of_ref dec = function
  | List (Atom base :: writes) ->
      {
        Sexpr.base;
        writes =
          List.map
            (function
              | List [ Atom "s"; k; v ] -> (tref dec k, Some (tref dec v))
              | List [ Atom "x"; k ] -> (tref dec k, None)
              | s -> raise (Parse_error ("bad dict write: " ^ sexp_to_string s)))
            writes;
      }
  | s -> raise (Parse_error ("bad dict state: " ^ sexp_to_string s))

let term_dec defs =
  let dec = { terms = Array.make (List.length defs) Sexpr.tru; filled = 0 } in
  List.iter
    (fun def ->
      let e =
        match def with
        | List [ Atom "c"; v ] -> Sexpr.const (value_of_sexp v)
        | List [ Atom "y"; Atom s ] -> Sexpr.sym s
        | List [ Atom "b"; Atom op; a; b ] ->
            Sexpr.mk_bin (binop_of_name op) (tref dec a) (tref dec b)
        | List [ Atom "n"; a ] -> Sexpr.mk_not (tref dec a)
        | List [ Atom "e"; a ] -> Sexpr.mk_neg (tref dec a)
        | List (Atom "t" :: es) -> Sexpr.mk_tuple (List.map (tref dec) es)
        | List (Atom "l" :: es) -> Sexpr.mk_list (List.map (tref dec) es)
        | List [ Atom "g"; a; b ] -> Sexpr.mk_get (tref dec a) (tref dec b)
        | List (Atom "u" :: Atom f :: args) -> Sexpr.mk_ufun f (List.map (tref dec) args)
        | List [ Atom "m"; d; k ] -> Sexpr.mk_mem (dict_of_ref dec d) (tref dec k)
        | List [ Atom "d"; d; k ] -> Sexpr.mk_dget (dict_of_ref dec d) (tref dec k)
        | List [ Atom "i"; g; a; b ] -> Sexpr.mk_ite (tref dec g) (tref dec a) (tref dec b)
        | s -> raise (Parse_error ("bad term definition: " ^ sexp_to_string s))
      in
      dec.terms.(dec.filled) <- e;
      dec.filled <- dec.filled + 1)
    defs;
  dec

(* ------------------------------------------------------------------ *)
(* Version 1-2 expression trees (read only)                           *)
(* ------------------------------------------------------------------ *)

(* Before version 3 every expression position held the term's whole
   tree. Parsing rebuilds through the smart constructors exactly like
   the table decoder. *)
let rec expr_of_tree = function
  | List [ Atom "const"; v ] -> Sexpr.const (value_of_sexp v)
  | List [ Atom "sym"; Atom s ] -> Sexpr.sym s
  | List [ Atom "bin"; Atom op; a; b ] ->
      Sexpr.mk_bin (binop_of_name op) (expr_of_tree a) (expr_of_tree b)
  | List [ Atom "not"; a ] -> Sexpr.mk_not (expr_of_tree a)
  | List [ Atom "neg"; a ] -> Sexpr.mk_neg (expr_of_tree a)
  | List (Atom "tup" :: es) -> Sexpr.mk_tuple (List.map expr_of_tree es)
  | List (Atom "lst" :: es) -> Sexpr.mk_list (List.map expr_of_tree es)
  | List [ Atom "get"; a; b ] -> Sexpr.mk_get (expr_of_tree a) (expr_of_tree b)
  | List (Atom "ufun" :: Atom f :: args) -> Sexpr.mk_ufun f (List.map expr_of_tree args)
  | List [ Atom "mem"; d; k ] -> Sexpr.mk_mem (dict_of_tree d) (expr_of_tree k)
  | List [ Atom "dget"; d; k ] -> Sexpr.mk_dget (dict_of_tree d) (expr_of_tree k)
  | List [ Atom "ite"; g; a; b ] ->
      Sexpr.mk_ite (expr_of_tree g) (expr_of_tree a) (expr_of_tree b)
  | s -> raise (Parse_error ("bad expression: " ^ sexp_to_string s))

and dict_of_tree = function
  | List (Atom "dictstate" :: Atom base :: writes) ->
      {
        Sexpr.base;
        writes =
          List.map
            (function
              | List [ Atom "set"; k; v ] -> (expr_of_tree k, Some (expr_of_tree v))
              | List [ Atom "del"; k ] -> (expr_of_tree k, None)
              | s -> raise (Parse_error ("bad write: " ^ sexp_to_string s)))
            writes;
      }
  | s -> raise (Parse_error ("bad dict state: " ^ sexp_to_string s))

(* ------------------------------------------------------------------ *)
(* Model encoding                                                     *)
(* ------------------------------------------------------------------ *)

(* Entries have the same layout in every version; only what an
   expression position holds differs, so each decoder below takes the
   expression reader [expr]: a table reference in version 3, a tree
   before. *)

let sexp_of_literal enc (l : Solver.literal) =
  List [ Atom (if l.Solver.positive then "+" else "-"); eref enc l.Solver.atom ]

let literal_with expr = function
  | List [ Atom "+"; a ] -> Solver.lit (expr a) true
  | List [ Atom "-"; a ] -> Solver.lit (expr a) false
  | s -> raise (Parse_error ("bad literal: " ^ sexp_to_string s))

let literal_of_sexp dec = literal_with (tref dec)

let sexp_of_dict_ops enc ops =
  List.map
    (fun (k, op) ->
      match op with
      | Some value -> List [ Atom "set"; eref enc k; eref enc value ]
      | None -> List [ Atom "del"; eref enc k ])
    ops

let sexp_of_entry enc (e : Model.entry) =
  let lits tag l = List (Atom tag :: List.map (sexp_of_literal enc) l) in
  List
    [
      Atom "entry";
      lits "config" e.Model.config;
      lits "flow" e.Model.flow_match;
      lits "state" e.Model.state_match;
      lits "residual" e.Model.residual_match;
      List
        [
          Atom "action";
          (match e.Model.pkt_action with
          | Model.Drop -> List [ Atom "drop" ]
          | Model.Forward snaps ->
              List
                (Atom "forward"
                :: List.map
                     (fun snap -> List (List.map (fun (f, x) -> List [ Atom f; eref enc x ]) snap))
                     snaps));
        ];
      List
        (Atom "updates"
        :: List.map
             (fun (v, u) ->
               match u with
               | Model.Set_scalar x -> List [ Atom "set-scalar"; Atom v; eref enc x ]
               | Model.Dict_ops ops -> List (Atom "dict-ops" :: Atom v :: sexp_of_dict_ops enc ops))
             e.Model.state_update);
      List (Atom "path" :: List.map (fun sid -> Atom (string_of_int sid)) e.Model.path_sids);
      List [ Atom "truncated"; Atom (string_of_bool e.Model.truncated) ];
    ]

let action_of_sexp expr = function
  | List [ Atom "drop" ] -> Model.Drop
  | List (Atom "forward" :: snaps) ->
      Model.Forward
        (List.map
           (function
             | List fields ->
                 List.map
                   (function
                     | List [ Atom f; e ] -> (f, expr e)
                     | s -> raise (Parse_error ("bad field: " ^ sexp_to_string s)))
                   fields
             | s -> raise (Parse_error ("bad snapshot: " ^ sexp_to_string s)))
           snaps)
  | s -> raise (Parse_error ("bad action: " ^ sexp_to_string s))

let update_of_sexp expr = function
  | List [ Atom "set-scalar"; Atom v; e ] -> (v, Model.Set_scalar (expr e))
  | List (Atom "dict-ops" :: Atom v :: ops) ->
      ( v,
        Model.Dict_ops
          (List.map
             (function
               | List [ Atom "set"; k; value ] -> (expr k, Some (expr value))
               | List [ Atom "del"; k ] -> (expr k, None)
               | s -> raise (Parse_error ("bad op: " ^ sexp_to_string s)))
             ops) )
  | s -> raise (Parse_error ("bad update: " ^ sexp_to_string s))

let entry_of_sexp expr = function
  | List
      (Atom "entry"
      :: List (Atom "config" :: config)
      :: List (Atom "flow" :: flow)
      :: List (Atom "state" :: state)
      :: rest) -> (
      (* The [residual] clause arrived in version 2; version-1 entries
         lack it and parse with an empty residual. *)
      let residual, rest =
        match rest with
        | List (Atom "residual" :: residual) :: rest -> (residual, rest)
        | _ -> ([], rest)
      in
      match rest with
      | [
       List [ Atom "action"; action ];
       List (Atom "updates" :: updates);
       List (Atom "path" :: path);
       List [ Atom "truncated"; Atom trunc ];
      ] ->
          let lits = List.map (literal_with expr) in
          {
            Model.config = lits config;
            flow_match = lits flow;
            state_match = lits state;
            residual_match = lits residual;
            pkt_action = action_of_sexp expr action;
            state_update = List.map (update_of_sexp expr) updates;
            path_sids =
              List.map
                (function Atom s -> int_atom s | _ -> raise (Parse_error "bad sid"))
                path;
            truncated = bool_atom trunc;
          }
      | _ -> raise (Parse_error "bad entry body"))
  | s -> raise (Parse_error ("bad entry: " ^ sexp_to_string s))

let model_fields enc (m : Model.t) =
  let names tag l = List (Atom tag :: List.map (fun v -> Atom v) l) in
  [
    List [ Atom "name"; Atom m.Model.nf_name ];
    List [ Atom "pkt-var"; Atom m.Model.pkt_var ];
    names "cfg-vars" m.Model.cfg_vars;
    names "ois-vars" m.Model.ois_vars;
    List (Atom "entries" :: List.map (sexp_of_entry enc) m.Model.entries);
  ]

let model_of_fields_with expr = function
  | [
      List [ Atom "name"; Atom nf_name ];
      List [ Atom "pkt-var"; Atom pkt_var ];
      List (Atom "cfg-vars" :: cfg);
      List (Atom "ois-vars" :: ois);
      List (Atom "entries" :: entries);
    ] ->
      let names l =
        List.map (function Atom s -> s | _ -> raise (Parse_error "bad name")) l
      in
      {
        Model.nf_name;
        pkt_var;
        cfg_vars = names cfg;
        ois_vars = names ois;
        entries = List.map (entry_of_sexp expr) entries;
      }
  | _ -> raise (Parse_error "bad model fields")

let model_of_fields dec fields = model_of_fields_with (tref dec) fields

let version = 3

(** Serialize a model to its interchange text. *)
let to_string (m : Model.t) =
  let enc = term_enc () in
  (* Encode the fields first so the table they reference is complete,
     then emit the table up front for one-pass decoding. *)
  let fields = model_fields enc m in
  sexp_to_string
    (List
       (Atom "nfactor-model"
       :: List [ Atom "version"; Atom (string_of_int version) ]
       :: terms_sexp enc :: fields))

(** Parse a model back.
    @raise Parse_error on malformed or wrong-version input. *)
let of_string input =
  match parse_sexp input with
  | List (Atom "nfactor-model" :: List [ Atom "version"; Atom v ] :: rest) -> (
      match (int_atom v, rest) with
      | 3, List (Atom "terms" :: defs) :: fields -> model_of_fields (term_dec defs) fields
      | (1 | 2), fields -> model_of_fields_with expr_of_tree fields
      | v, _ ->
          if v = version then raise (Parse_error "version 3 document without a term table")
          else raise (Parse_error (Printf.sprintf "unsupported version %d" v)))
  | _ -> raise (Parse_error "not an nfactor-model document")
