(** Text codec for packet traces: one packet per line
    ([proto src sport dst dport flags ttl len seq ack "payload"]),
    [#] comments and blank lines ignored. Interchange format for
    replaying captured or hand-written traffic through an NF and its
    model. *)

val to_line : Pkt.t -> string

exception Parse_error of int * string
(** The decoders' one error: a 1-based line number and what is wrong
    there. *)

val of_line : string -> Pkt.t
(** @raise Parse_error (line 1) on malformed lines. *)

val to_string : Pkt.t list -> string

val of_string : string -> Pkt.t list
(** @raise Parse_error on the first malformed line. *)

val save : file:string -> Pkt.t list -> unit

val load : file:string -> Pkt.t list
(** @raise Parse_error on the first malformed line, [Sys_error] when
    the file cannot be read. *)
