open Nfactor
open Symexec

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Extract.run ~name (entry.Nfs.Corpus.program ())

(* Round trip: serialized + reparsed model renders identically. *)
let test_roundtrip_all_nfs () =
  List.iter
    (fun name ->
      let m = (extract_nf name).Extract.model in
      let m' = Model_io.of_string (Model_io.to_string m) in
      Alcotest.(check string) (name ^ " roundtrips") (Model.to_string m) (Model.to_string m'))
    Nfs.Corpus.names

(* The reparsed model is behaviourally identical, not just textually:
   drive both through the model interpreter. *)
let test_roundtrip_behaviour () =
  let ex = extract_nf "lb" in
  let m = ex.Extract.model in
  let m' = Model_io.of_string (Model_io.to_string m) in
  let store = Model_interp.initial_store ex in
  let pkts = Packet.Traffic.random_stream ~seed:31337 ~n:300 () in
  let _, out1 = Model_interp.run m ~store ~pkts in
  let _, out2 = Model_interp.run m' ~store ~pkts in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same outputs" true
        (List.length a = List.length b && List.for_all2 Packet.Pkt.equal a b))
    out1 out2

let test_sexp_atom_quoting () =
  (* Strings with spaces/specials survive. *)
  let v = Value.Str "GET /etc/passwd \"x\"\nend" in
  let s = Model_io.sexp_to_string (Model_io.sexp_of_value v) in
  let v' = Model_io.value_of_sexp (Model_io.parse_sexp s) in
  Alcotest.(check bool) "string roundtrip" true (Value.equal v v')

let test_value_roundtrip () =
  let cases =
    [
      Value.Int 42;
      Value.Int (-7);
      Value.Bool true;
      Value.Str "";
      Value.Tuple [ Value.Int 1; Value.Str "a" ];
      Value.List [ Value.Tuple [ Value.Int 1; Value.Int 2 ] ];
      Value.Dict [ (Value.Int 1, Value.Str "x"); (Value.Int 2, Value.Str "y") ];
    ]
  in
  List.iter
    (fun v ->
      let v' = Model_io.value_of_sexp (Model_io.parse_sexp (Model_io.sexp_to_string (Model_io.sexp_of_value v))) in
      Alcotest.(check bool) (Value.to_string v) true (Value.equal v v'))
    cases

let test_expr_roundtrip () =
  let d =
    { Sexpr.base = "tbl"; writes = [ (Sexpr.sym "k", Some (Sexpr.int 1)); (Sexpr.sym "q", None) ] }
  in
  let cases =
    [
      Sexpr.sym "pkt.dport";
      Sexpr.mk_bin Nfl.Ast.Add (Sexpr.sym "x") (Sexpr.int 3);
      Sexpr.mk_not (Sexpr.sym "b");
      Sexpr.mk_tuple [ Sexpr.sym "a"; Sexpr.int 2 ];
      Sexpr.mk_get (Sexpr.mk_list [ Sexpr.int 1; Sexpr.int 2 ]) (Sexpr.sym "i");
      Sexpr.mk_ufun "hash" [ Sexpr.sym "x" ];
      Sexpr.mk_mem d (Sexpr.sym "key");
      Sexpr.mk_dget d (Sexpr.mk_tuple [ Sexpr.sym "a"; Sexpr.sym "b" ]);
    ]
  in
  List.iter
    (fun e ->
      let e' = Model_io.expr_of_sexp (Model_io.parse_sexp (Model_io.sexp_to_string (Model_io.sexp_of_expr e))) in
      Alcotest.(check bool) (Sexpr.to_string e) true (Sexpr.equal e e'))
    cases

let test_v1_document_compat () =
  (* Version-1 entries predate the residual clause; they parse with an
     empty residual_match. *)
  let doc =
    "(nfactor-model (version 1) (name old) (pkt-var pkt) (cfg-vars) (ois-vars) \
     (entries (entry (config) (flow (+ (bin == (sym pkt.dport) (const (i 80))))) \
     (state) (action (drop)) (updates) (path 1 2) (truncated false))))"
  in
  let m = Model_io.of_string doc in
  Alcotest.(check int) "one entry" 1 (List.length m.Model.entries);
  let e = List.hd m.Model.entries in
  Alcotest.(check int) "empty residual" 0 (List.length e.Model.residual_match);
  Alcotest.(check int) "flow kept" 1 (List.length e.Model.flow_match)

let test_residual_roundtrip () =
  let e =
    {
      Model.config = [];
      flow_match = [];
      state_match = [];
      residual_match =
        [ Solver.lit (Sexpr.mk_ufun "crc" [ Sexpr.sym "x" ]) false ];
      pkt_action = Model.Drop;
      state_update = [];
      path_sids = [];
      truncated = false;
    }
  in
  let e' = Model_io.entry_of_sexp (Model_io.parse_sexp (Model_io.sexp_to_string (Model_io.sexp_of_entry e))) in
  match e'.Model.residual_match with
  | [ l ] ->
      Alcotest.(check bool) "polarity kept" false l.Solver.positive;
      Alcotest.(check bool) "atom re-interned to the same term" true
        (Sexpr.equal l.Solver.atom (Sexpr.mk_ufun "crc" [ Sexpr.sym "x" ]))
  | _ -> Alcotest.fail "one residual literal expected"

let test_parse_errors () =
  let fails s =
    match Model_io.parse_sexp s with
    | exception Model_io.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  fails "";
  fails "\"\\999\"";
  fails "\"\\1x2\"";
  fails "(";
  fails "(a))";
  fails "\"open";
  (match Model_io.of_string "(something-else)" with
  | exception Model_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "wrong document type accepted");
  match
    Model_io.of_string
      "(nfactor-model (version 99) (name x) (pkt-var p) (cfg-vars) (ois-vars) (entries))"
  with
  | exception Model_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "wrong version accepted"

let qcheck_sexp_roundtrip =
  (* Random nested sexps survive print/parse. *)
  let rec gen depth rng =
    if depth = 0 || Packet.Rng.int rng 3 = 0 then
      Model_io.Atom
        (Packet.Rng.pick rng [ "a"; "x1"; "with space"; "sym.bol"; ""; "\"q\""; "end\n" ])
    else
      Model_io.List (List.init (Packet.Rng.int rng 4) (fun _ -> gen (depth - 1) rng))
  in
  QCheck.Test.make ~name:"model_io: sexp print/parse roundtrip" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let s = gen 4 rng in
      Model_io.parse_sexp (Model_io.sexp_to_string s) = s)

(* Totality: a serialized corpus model with a few random byte edits
   either decodes or raises the one declared [Parse_error] — never
   [Failure], [Invalid_argument] or any other exception. The edit
   alphabet favours the characters that turn well-formed atoms into
   malformed numbers, booleans and escapes. *)
let corpus_documents =
  lazy
    (Array.of_list
       (List.map (fun n -> Model_io.to_string (extract_nf n).Extract.model) Nfs.Corpus.names))

(* Replace, insert before, or delete the character at 1-3 random
   positions. *)
let mutate rng doc =
  let alphabet = "0123456789-+xtruefals()\\\" \n" in
  let b = Buffer.create (String.length doc + 8) in
  let cuts =
    List.sort_uniq compare
      (List.init (1 + Packet.Rng.int rng 3) (fun _ -> Packet.Rng.int rng (String.length doc)))
  in
  let last =
    List.fold_left
      (fun from cut ->
        Buffer.add_string b (String.sub doc from (cut - from));
        let c = alphabet.[Packet.Rng.int rng (String.length alphabet)] in
        (match Packet.Rng.int rng 3 with
        | 0 -> Buffer.add_char b c
        | 1 -> Buffer.add_string b (String.make 1 c ^ String.make 1 doc.[cut])
        | _ -> ());
        cut + 1)
      0 cuts
  in
  Buffer.add_string b (String.sub doc last (String.length doc - last));
  Buffer.contents b

let qcheck_of_string_total =
  QCheck.Test.make ~name:"model_io: of_string on mutated documents raises only Parse_error"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let docs = Lazy.force corpus_documents in
      let doc = mutate rng docs.(Packet.Rng.int rng (Array.length docs)) in
      match Model_io.of_string doc with
      | _ -> true
      | exception Model_io.Parse_error _ -> true)

let suite =
  [
    Alcotest.test_case "model roundtrip (all NFs)" `Quick test_roundtrip_all_nfs;
    Alcotest.test_case "behavioural roundtrip" `Quick test_roundtrip_behaviour;
    Alcotest.test_case "atom quoting" `Quick test_sexp_atom_quoting;
    Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
    Alcotest.test_case "expr roundtrip" `Quick test_expr_roundtrip;
    Alcotest.test_case "v1 document compat" `Quick test_v1_document_compat;
    Alcotest.test_case "residual roundtrip" `Quick test_residual_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    QCheck_alcotest.to_alcotest qcheck_sexp_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_of_string_total;
  ]
