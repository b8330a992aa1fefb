(** Text codec for packet traces.

    One packet per line, whitespace-separated:

    {v
    <proto> <src> <sport> <dst> <dport> <flags> <ttl> <len> <seq> <ack> <payload>
    v}

    where [proto] is [tcp]/[udp]/[icmp] or a number, addresses are
    dotted quads, flags render like [SYN|ACK] (or [-]), and the payload
    is an OCaml-escaped quoted string. Lines starting with [#] and
    blank lines are ignored. The format is the interchange for replay
    experiments: captured or hand-written traces driven through an NF
    and its model. *)

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

let int_field line what s =
  match int_of_string_opt s with Some n -> n | None -> fail line "bad %s %S" what s

let proto_of_string line = function
  | "tcp" -> Headers.proto_tcp
  | "udp" -> Headers.proto_udp
  | "icmp" -> Headers.proto_icmp
  | s -> int_field line "protocol" s

let addr_of_string line s =
  match Addr.of_string s with a -> a | exception Invalid_argument _ -> fail line "bad address %S" s

let flags_of_string line s =
  if s = "-" then 0
  else
    String.split_on_char '|' s
    |> List.fold_left
         (fun acc part ->
           let bit =
             match part with
             | "SYN" -> Headers.syn
             | "ACK" -> Headers.ack
             | "FIN" -> Headers.fin
             | "RST" -> Headers.rst
             | "PSH" -> Headers.psh
             | "URG" -> Headers.urg
             | p -> int_field line "flag" p
           in
           acc lor bit)
         0

(** Render one packet as a trace line. *)
let to_line (p : Pkt.t) =
  Printf.sprintf "%s %s %d %s %d %s %d %d %d %d %S"
    (Headers.proto_to_string p.Pkt.ip_proto)
    (Addr.to_string p.Pkt.ip_src) p.Pkt.sport (Addr.to_string p.Pkt.ip_dst) p.Pkt.dport
    (Headers.flags_to_string p.Pkt.tcp_flags)
    p.Pkt.ip_ttl p.Pkt.ip_len p.Pkt.seq p.Pkt.ack p.Pkt.payload

(* Parse one trace line; [line] numbers it in errors. *)
let parse_line line text =
  (* The payload is a quoted suffix; split the head fields first. *)
  let text = String.trim text in
  match String.index_opt text '"' with
  | None -> fail line "missing payload field"
  | Some qpos -> (
      let head = String.trim (String.sub text 0 qpos) in
      let quoted = String.sub text qpos (String.length text - qpos) in
      let payload =
        match Scanf.sscanf quoted "%S%!" Fun.id with
        | s -> s
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
            fail line "malformed payload %s" quoted
      in
      let int = int_field line in
      match String.split_on_char ' ' head |> List.filter (fun s -> s <> "") with
      | [ proto; src; sport; dst; dport; flags; ttl; len; seq; ack ] ->
          Pkt.make ~ip_proto:(proto_of_string line proto) ~ip_src:(addr_of_string line src)
            ~sport:(int "sport" sport) ~ip_dst:(addr_of_string line dst)
            ~dport:(int "dport" dport) ~tcp_flags:(flags_of_string line flags)
            ~ip_ttl:(int "ttl" ttl) ~ip_len:(int "len" len) ~seq:(int "seq" seq)
            ~ack:(int "ack" ack) ~payload ()
      | fields -> fail line "expected 10 fields before the payload, found %d" (List.length fields))

(** Parse one trace line.
    @raise Parse_error (line 1) on malformed lines. *)
let of_line text = parse_line 1 text

(** Render a whole trace (with a header comment). *)
let to_string pkts =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# nfactor packet trace: proto src sport dst dport flags ttl len seq ack payload\n";
  List.iter
    (fun p ->
      Buffer.add_string b (to_line p);
      Buffer.add_char b '\n')
    pkts;
  Buffer.contents b

(** Parse a whole trace; [#] comments and blank lines are skipped. *)
let of_string text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter_map (fun (line, t) ->
         if t = "" || t.[0] = '#' then None else Some (parse_line line t))

let save ~file pkts =
  let oc = open_out file in
  output_string oc (to_string pkts);
  close_out oc

let load ~file =
  let ic = open_in file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_string text
