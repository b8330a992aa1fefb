(* The corpus NFs as the synth workload reads them: name, NFL source
   text and parsed program. *)

type t = { name : string; source : string; program : Nfl.Ast.program }

let all () =
  List.map
    (fun (e : Nfs.Corpus.entry) ->
      {
        name = e.Nfs.Corpus.name;
        source = e.Nfs.Corpus.source ();
        program = e.Nfs.Corpus.program ();
      })
    Nfs.Corpus.all
