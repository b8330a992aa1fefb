(* One-line JSON rendering; see the interface for the layout. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escape b c = Printf.bprintf b "\\u%04x" c

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  let n = String.length s in
  let rec go i =
    if i < n then begin
      let c = s.[i] in
      if Char.code c < 0x80 then begin
        (match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 || Char.code c = 0x7f -> add_escape b (Char.code c)
        | c -> Buffer.add_char b c);
        go (i + 1)
      end
      else
        let d = String.get_utf_8_uchar s i in
        if Uchar.utf_decode_is_valid d then begin
          let u = Uchar.to_int (Uchar.utf_decode_uchar d) in
          if u < 0x10000 then add_escape b u
          else begin
            let v = u - 0x10000 in
            add_escape b (0xd800 lor (v lsr 10));
            add_escape b (0xdc00 lor (v land 0x3ff))
          end;
          go (i + Uchar.utf_decode_length d)
        end
        else begin
          add_escape b (Char.code c);
          go (i + 1)
        end
    end
  in
  go 0;
  Buffer.add_char b '"';
  Buffer.contents b

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      if Float.is_finite f then Printf.bprintf b "%.3f" f
      else Buffer.add_string b "null"
  | String s -> Buffer.add_string b (quote s)
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ", ";
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (quote k);
          Buffer.add_string b ": ";
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  add b j;
  Buffer.contents b
