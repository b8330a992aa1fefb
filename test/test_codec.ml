open Packet

let pkt ?(flags = 0) ?(payload = "") () =
  Pkt.make ~ip_src:(Addr.of_string "10.0.0.1") ~ip_dst:(Addr.of_string "3.3.3.3") ~sport:1234
    ~dport:80 ~tcp_flags:flags ~payload ()

let test_line_roundtrip () =
  let p = pkt ~flags:(Headers.syn lor Headers.ack) ~payload:"GET / HTTP\n\"quoted\"" () in
  let p' = Codec.of_line (Codec.to_line p) in
  Alcotest.(check bool) "roundtrip" true (Pkt.equal p p')

let test_trace_roundtrip () =
  let pkts = Traffic.random_stream ~seed:99 ~n:100 () in
  let pkts' = Codec.of_string (Codec.to_string pkts) in
  Alcotest.(check int) "count" (List.length pkts) (List.length pkts');
  Alcotest.(check bool) "all equal" true (List.for_all2 Pkt.equal pkts pkts')

let test_comments_and_blanks_skipped () =
  let text = "# header\n\n" ^ Codec.to_line (pkt ()) ^ "\n\n# trailing\n" in
  Alcotest.(check int) "one packet" 1 (List.length (Codec.of_string text))

let test_flag_names () =
  let p = Codec.of_line "tcp 1.1.1.1 1 2.2.2.2 2 SYN|ACK 64 60 0 0 \"\"" in
  Alcotest.(check int) "flags" (Headers.syn lor Headers.ack) p.Pkt.tcp_flags;
  let p2 = Codec.of_line "udp 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0 \"\"" in
  Alcotest.(check int) "no flags" 0 p2.Pkt.tcp_flags;
  Alcotest.(check int) "udp proto" Headers.proto_udp p2.Pkt.ip_proto

let test_numeric_proto () =
  let p = Codec.of_line "47 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0 \"\"" in
  Alcotest.(check int) "gre" 47 p.Pkt.ip_proto

let test_malformed () =
  List.iter
    (fun line ->
      match Codec.of_line line with
      | exception Codec.Parse_error (1, _) -> ()
      | _ -> Alcotest.failf "accepted %S" line)
    [ ""; "tcp 1.1.1.1"; "tcp 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0"; "xyz 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0 \"\"" ]

let test_error_lines () =
  (* One-line edits of a generated trace used to leak Failure,
     Scanf.Scan_failure and Invalid_argument; each is now a
     Parse_error naming the edited line. *)
  let lines =
    String.split_on_char '\n' (Codec.to_string (Traffic.random_stream ~seed:3 ~n:4 ()))
  in
  let edit k f = String.concat "\n" (List.mapi (fun i l -> if i = k then f l else l) lines) in
  let fields l = String.split_on_char ' ' l in
  let set_field j v l = String.concat " " (List.mapi (fun i x -> if i = j then v else x) (fields l)) in
  List.iter
    (fun (what, text) ->
      match Codec.of_string text with
      | exception Codec.Parse_error (line, _) -> Alcotest.(check int) what 3 line
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("bad port", edit 2 (set_field 2 "23214x"));
      ("unterminated payload", edit 2 (fun l -> l ^ " \"open"));
      ("unterminated payload only", edit 2 (fun l -> String.sub l 0 (String.rindex l '"')));
      ("bad address", edit 2 (set_field 1 "1.2.3"));
    ]

let test_file_io () =
  let file = Filename.temp_file "nfactor" ".trace" in
  let pkts = Traffic.flow_stream ~seed:5 ~flows:3 ~data_pkts:1 () in
  Codec.save ~file pkts;
  let pkts' = Codec.load ~file in
  Sys.remove file;
  Alcotest.(check bool) "file roundtrip" true
    (List.length pkts = List.length pkts' && List.for_all2 Pkt.equal pkts pkts')

let qcheck_roundtrip =
  QCheck.Test.make ~name:"codec: line roundtrip on random packets" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = List.hd (Traffic.random_stream ~seed ~n:1 ()) in
      Pkt.equal p (Codec.of_line (Codec.to_line p)))

(* Mutated traces (the model-document mutator: inserted, doubled and
   deleted characters) either decode or raise Parse_error at one of
   their own lines. *)
let trace_documents =
  lazy
    (Array.init 6 (fun seed ->
         Codec.to_string
           (Traffic.random_stream ~seed ~n:4 ()
           @ Traffic.flow_stream ~seed ~flows:1 ~data_pkts:1 ())))

let qcheck_of_string_total =
  QCheck.Test.make ~name:"codec: of_string on mutated traces raises only Parse_error"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let docs = Lazy.force trace_documents in
      let doc = Test_model_io.mutate rng docs.(Rng.int rng (Array.length docs)) in
      match Codec.of_string doc with
      | _ -> true
      | exception Codec.Parse_error (line, _) ->
          line >= 1 && line <= List.length (String.split_on_char '\n' doc))

let suite =
  [
    Alcotest.test_case "line roundtrip" `Quick test_line_roundtrip;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "comments skipped" `Quick test_comments_and_blanks_skipped;
    Alcotest.test_case "flag names" `Quick test_flag_names;
    Alcotest.test_case "numeric proto" `Quick test_numeric_proto;
    Alcotest.test_case "malformed rejected" `Quick test_malformed;
    Alcotest.test_case "errors name the line" `Quick test_error_lines;
    Alcotest.test_case "file io" `Quick test_file_io;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_of_string_total;
  ]
