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
      let text = Model_io.to_string m in
      let m' = Model_io.of_string text in
      Alcotest.(check string) (name ^ " roundtrips") (Model.to_string m) (Model.to_string m');
      Alcotest.(check string) (name ^ " text is a fixpoint") text (Model_io.to_string m'))
    Nfs.Corpus.names

(* The term table keeps every document linear in its distinct terms:
   dpi's merged ite summaries once rendered as a 600 KB tree. *)
let test_document_size () =
  List.iter
    (fun name ->
      let bytes = String.length (Model_io.to_string (extract_nf name).Extract.model) in
      if bytes > 8192 then Alcotest.failf "%s: %d-byte model document (limit 8192)" name bytes)
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
  let enc = Model_io.term_enc () in
  let refs = List.map (Model_io.eref enc) cases in
  let text = Model_io.sexp_to_string (Model_io.List (Model_io.terms_sexp enc :: refs)) in
  match Model_io.parse_sexp text with
  | Model_io.List (Model_io.List (Model_io.Atom "terms" :: defs) :: refs) ->
      let dec = Model_io.term_dec defs in
      List.iter2
        (fun e r ->
          Alcotest.(check bool) (Sexpr.to_string e) true (Sexpr.equal e (Model_io.tref dec r)))
        cases refs
  | _ -> Alcotest.fail "term table did not print as a list"

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

(* A version-2 document (expression trees, no term table) written by
   the version-2 writer still parses to the model extraction builds
   today; rangefw's merged ite summaries exercise the tree reader. *)
let test_v2_document_compat () =
  let doc = In_channel.with_open_bin "fixtures/rangefw.v2.nfm" In_channel.input_all in
  let m = (extract_nf "rangefw").Extract.model in
  let m' = Model_io.of_string (String.trim doc) in
  Alcotest.(check string) "same model" (Model.to_string m) (Model.to_string m');
  Alcotest.(check string) "re-exports as today's document" (Model_io.to_string m)
    (Model_io.to_string m')

(* Corrupted term references: a reference to a later definition, one
   past the table, and a list in place of an index. *)
let test_bad_term_references () =
  let doc terms flow =
    Printf.sprintf
      "(nfactor-model (version 3) (terms %s) (name x) (pkt-var pkt) (cfg-vars) (ois-vars) \
       (entries (entry (config) (flow (+ %s)) (state) (residual) (action (drop)) (updates) \
       (path) (truncated false))))"
      terms flow
  in
  let ok = doc "(y pkt.dport) (c (i 80)) (b == 0 1)" "2" in
  Alcotest.(check int) "well-formed document parses" 1
    (List.length (Model_io.of_string ok).Model.entries);
  List.iter
    (fun (what, text) ->
      match Model_io.of_string text with
      | exception Model_io.Parse_error _ -> ()
      | exception e -> Alcotest.failf "%s: leaked %s" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: accepted" what)
    [
      ("forward reference in the table", doc "(b == 1 2) (y pkt.dport) (c (i 80))" "0");
      ("self reference", doc "(n 0)" "0");
      ("entry index past the table", doc "(y pkt.dport) (c (i 80)) (b == 0 1)" "3");
      ("negative index", doc "(y pkt.dport)" "-1");
      ("non-atom index", doc "(y pkt.dport) (c (i 80)) (b == 0 1)" "(2)");
      ("non-atom operand", doc "(y pkt.dport) (c (i 80)) (b == (0) 1)" "2");
      ("non-numeric index", doc "(y pkt.dport)" "x0");
      ("missing term table",
        "(nfactor-model (version 3) (name x) (pkt-var pkt) (cfg-vars) (ois-vars) (entries))");
    ]

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
  let m = { Model.nf_name = "r"; pkt_var = "pkt"; cfg_vars = []; ois_vars = []; entries = [ e ] } in
  let e' = List.hd (Model_io.of_string (Model_io.to_string m)).Model.entries in
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

(* [decode] on a mutation of one of [docs] either returns or raises
   [Parse_error]; shared by every document decoder's totality
   property. *)
let decoder_total ~name ~count docs decode =
  QCheck.Test.make ~name ~count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let docs = Lazy.force docs in
      let doc = mutate rng docs.(Packet.Rng.int rng (Array.length docs)) in
      match decode doc with _ -> true | exception Model_io.Parse_error _ -> true)

let qcheck_of_string_total =
  decoder_total ~name:"model_io: of_string on mutated documents raises only Parse_error"
    ~count:500 corpus_documents Model_io.of_string

let suite =
  [
    Alcotest.test_case "model roundtrip (all NFs)" `Quick test_roundtrip_all_nfs;
    Alcotest.test_case "behavioural roundtrip" `Quick test_roundtrip_behaviour;
    Alcotest.test_case "atom quoting" `Quick test_sexp_atom_quoting;
    Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
    Alcotest.test_case "expr roundtrip" `Quick test_expr_roundtrip;
    Alcotest.test_case "v1 document compat" `Quick test_v1_document_compat;
    Alcotest.test_case "v2 document compat" `Quick test_v2_document_compat;
    Alcotest.test_case "bad term references" `Quick test_bad_term_references;
    Alcotest.test_case "document size" `Quick test_document_size;
    Alcotest.test_case "residual roundtrip" `Quick test_residual_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    QCheck_alcotest.to_alcotest qcheck_sexp_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_of_string_total;
  ]
