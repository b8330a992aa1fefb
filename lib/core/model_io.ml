(** Model serialization.

    The paper's deployment story has NF vendors running NFactor on
    proprietary code and shipping {e only the model} to operators.
    This module is that interchange format: a small s-expression
    encoding of {!Model.t} with a total parser, so models round-trip
    through files and can be consumed by external verification
    tooling.

    The format is self-describing and versioned:

    Terms are hash-consed with session-local ids ({!Sexpr.id}), so the
    encoding is purely structural: writing renders term structure, and
    parsing rebuilds terms through the interning smart constructors, so
    a parsed model's terms are unique representatives in the {e
    reader's} intern table whatever process wrote the file.

    The format is self-describing and versioned:

    {v
    (nfactor-model (version 2) (name lb)
      (pkt-var pkt) (cfg-vars mode ...) (ois-vars f2b_nat ...)
      (entries (entry (config ...) (flow ...) (state ...) (residual ...)
                      (action ...) (updates ...)) ...))
    v}

    Version 1 documents (no [residual] clause) still parse. *)

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
(* Symbolic expression encoding                                       *)
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

let rec sexp_of_expr e =
  match Sexpr.view e with
  | Sexpr.Const v -> List [ Atom "const"; sexp_of_value v ]
  | Sexpr.Sym s -> List [ Atom "sym"; Atom s ]
  | Sexpr.Bin (op, a, b) -> List [ Atom "bin"; Atom (binop_name op); sexp_of_expr a; sexp_of_expr b ]
  | Sexpr.Not a -> List [ Atom "not"; sexp_of_expr a ]
  | Sexpr.Neg a -> List [ Atom "neg"; sexp_of_expr a ]
  | Sexpr.Tup es -> List (Atom "tup" :: List.map sexp_of_expr es)
  | Sexpr.Lst es -> List (Atom "lst" :: List.map sexp_of_expr es)
  | Sexpr.Get (a, b) -> List [ Atom "get"; sexp_of_expr a; sexp_of_expr b ]
  | Sexpr.Ufun (f, args) -> List (Atom "ufun" :: Atom f :: List.map sexp_of_expr args)
  | Sexpr.Mem (d, k) -> List [ Atom "mem"; sexp_of_dict d; sexp_of_expr k ]
  | Sexpr.Dget (d, k) -> List [ Atom "dget"; sexp_of_dict d; sexp_of_expr k ]
  | Sexpr.Ite (g, a, b) -> List [ Atom "ite"; sexp_of_expr g; sexp_of_expr a; sexp_of_expr b ]

and sexp_of_dict (d : Sexpr.dict_state) =
  List
    (Atom "dictstate" :: Atom d.Sexpr.base
    :: List.map
         (fun (k, v) ->
           match v with
           | Some value -> List [ Atom "set"; sexp_of_expr k; sexp_of_expr value ]
           | None -> List [ Atom "del"; sexp_of_expr k ])
         d.Sexpr.writes)

(* Parsing rebuilds terms through the smart constructors, re-interning
   (and re-folding, a no-op for terms the constructors built in the
   first place) in the current session's table. *)
let rec expr_of_sexp = function
  | List [ Atom "const"; v ] -> Sexpr.const (value_of_sexp v)
  | List [ Atom "sym"; Atom s ] -> Sexpr.sym s
  | List [ Atom "bin"; Atom op; a; b ] ->
      Sexpr.mk_bin (binop_of_name op) (expr_of_sexp a) (expr_of_sexp b)
  | List [ Atom "not"; a ] -> Sexpr.mk_not (expr_of_sexp a)
  | List [ Atom "neg"; a ] -> Sexpr.mk_neg (expr_of_sexp a)
  | List (Atom "tup" :: es) -> Sexpr.mk_tuple (List.map expr_of_sexp es)
  | List (Atom "lst" :: es) -> Sexpr.mk_list (List.map expr_of_sexp es)
  | List [ Atom "get"; a; b ] -> Sexpr.mk_get (expr_of_sexp a) (expr_of_sexp b)
  | List (Atom "ufun" :: Atom f :: args) -> Sexpr.mk_ufun f (List.map expr_of_sexp args)
  | List [ Atom "mem"; d; k ] -> Sexpr.mk_mem (dict_of_sexp d) (expr_of_sexp k)
  | List [ Atom "dget"; d; k ] -> Sexpr.mk_dget (dict_of_sexp d) (expr_of_sexp k)
  | List [ Atom "ite"; g; a; b ] ->
      Sexpr.mk_ite (expr_of_sexp g) (expr_of_sexp a) (expr_of_sexp b)
  | s -> raise (Parse_error ("bad expression: " ^ sexp_to_string s))

and dict_state_of_sexp s = dict_of_sexp s

and dict_of_sexp = function
  | List (Atom "dictstate" :: Atom base :: writes) ->
      {
        Sexpr.base;
        writes =
          List.map
            (function
              | List [ Atom "set"; k; v ] -> (expr_of_sexp k, Some (expr_of_sexp v))
              | List [ Atom "del"; k ] -> (expr_of_sexp k, None)
              | s -> raise (Parse_error ("bad write: " ^ sexp_to_string s)))
            writes;
      }
  | s -> raise (Parse_error ("bad dict state: " ^ sexp_to_string s))

let sexp_of_dict_state = sexp_of_dict

(* ------------------------------------------------------------------ *)
(* Model encoding                                                     *)
(* ------------------------------------------------------------------ *)

let sexp_of_literal (l : Solver.literal) =
  List [ Atom (if l.Solver.positive then "+" else "-"); sexp_of_expr l.Solver.atom ]

let literal_of_sexp = function
  | List [ Atom "+"; a ] -> Solver.lit (expr_of_sexp a) true
  | List [ Atom "-"; a ] -> Solver.lit (expr_of_sexp a) false
  | s -> raise (Parse_error ("bad literal: " ^ sexp_to_string s))

let sexp_of_action = function
  | Model.Drop -> List [ Atom "drop" ]
  | Model.Forward snaps ->
      List
        (Atom "forward"
        :: List.map
             (fun snap ->
               List (List.map (fun (f, e) -> List [ Atom f; sexp_of_expr e ]) snap))
             snaps)

let action_of_sexp = function
  | List [ Atom "drop" ] -> Model.Drop
  | List (Atom "forward" :: snaps) ->
      Model.Forward
        (List.map
           (function
             | List fields ->
                 List.map
                   (function
                     | List [ Atom f; e ] -> (f, expr_of_sexp e)
                     | s -> raise (Parse_error ("bad field: " ^ sexp_to_string s)))
                   fields
             | s -> raise (Parse_error ("bad snapshot: " ^ sexp_to_string s)))
           snaps)
  | s -> raise (Parse_error ("bad action: " ^ sexp_to_string s))

let sexp_of_update (v, u) =
  match u with
  | Model.Set_scalar e -> List [ Atom "set-scalar"; Atom v; sexp_of_expr e ]
  | Model.Dict_ops ops ->
      List
        (Atom "dict-ops" :: Atom v
        :: List.map
             (fun (k, op) ->
               match op with
               | Some value -> List [ Atom "set"; sexp_of_expr k; sexp_of_expr value ]
               | None -> List [ Atom "del"; sexp_of_expr k ])
             ops)

let update_of_sexp = function
  | List [ Atom "set-scalar"; Atom v; e ] -> (v, Model.Set_scalar (expr_of_sexp e))
  | List (Atom "dict-ops" :: Atom v :: ops) ->
      ( v,
        Model.Dict_ops
          (List.map
             (function
               | List [ Atom "set"; k; value ] -> (expr_of_sexp k, Some (expr_of_sexp value))
               | List [ Atom "del"; k ] -> (expr_of_sexp k, None)
               | s -> raise (Parse_error ("bad op: " ^ sexp_to_string s)))
             ops) )
  | s -> raise (Parse_error ("bad update: " ^ sexp_to_string s))

let sexp_of_entry (e : Model.entry) =
  List
    [
      Atom "entry";
      List (Atom "config" :: List.map sexp_of_literal e.Model.config);
      List (Atom "flow" :: List.map sexp_of_literal e.Model.flow_match);
      List (Atom "state" :: List.map sexp_of_literal e.Model.state_match);
      List (Atom "residual" :: List.map sexp_of_literal e.Model.residual_match);
      List [ Atom "action"; sexp_of_action e.Model.pkt_action ];
      List (Atom "updates" :: List.map sexp_of_update e.Model.state_update);
      List (Atom "path" :: List.map (fun sid -> Atom (string_of_int sid)) e.Model.path_sids);
      List [ Atom "truncated"; Atom (string_of_bool e.Model.truncated) ];
    ]

let entry_of_sexp = function
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
          {
            Model.config = List.map literal_of_sexp config;
            flow_match = List.map literal_of_sexp flow;
            state_match = List.map literal_of_sexp state;
            residual_match = List.map literal_of_sexp residual;
            pkt_action = action_of_sexp action;
            state_update = List.map update_of_sexp updates;
            path_sids =
              List.map
                (function Atom s -> int_atom s | _ -> raise (Parse_error "bad sid"))
                path;
            truncated = bool_atom trunc;
          }
      | _ -> raise (Parse_error "bad entry body"))
  | s -> raise (Parse_error ("bad entry: " ^ sexp_to_string s))

let version = 2

(** Serialize a model to its interchange text. *)
let to_string (m : Model.t) =
  sexp_to_string
    (List
       [
         Atom "nfactor-model";
         List [ Atom "version"; Atom (string_of_int version) ];
         List [ Atom "name"; Atom m.Model.nf_name ];
         List [ Atom "pkt-var"; Atom m.Model.pkt_var ];
         List (Atom "cfg-vars" :: List.map (fun v -> Atom v) m.Model.cfg_vars);
         List (Atom "ois-vars" :: List.map (fun v -> Atom v) m.Model.ois_vars);
         List (Atom "entries" :: List.map sexp_of_entry m.Model.entries);
       ])

(** Parse a model back.
    @raise Parse_error on malformed or wrong-version input. *)
let of_string input =
  match parse_sexp input with
  | List
      [
        Atom "nfactor-model";
        List [ Atom "version"; Atom v ];
        List [ Atom "name"; Atom nf_name ];
        List [ Atom "pkt-var"; Atom pkt_var ];
        List (Atom "cfg-vars" :: cfg);
        List (Atom "ois-vars" :: ois);
        List (Atom "entries" :: entries);
      ] ->
      let v = int_atom v in
      if v < 1 || v > version then
        raise (Parse_error (Printf.sprintf "unsupported version %d" v));
      let names l =
        List.map (function Atom s -> s | _ -> raise (Parse_error "bad name")) l
      in
      {
        Model.nf_name;
        pkt_var;
        cfg_vars = names cfg;
        ois_vars = names ois;
        entries = List.map entry_of_sexp entries;
      }
  | _ -> raise (Parse_error "not an nfactor-model document")
