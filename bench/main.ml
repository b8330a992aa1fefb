(** Paper-reproduction printer: regenerates every table and figure of
    the paper's evaluation (Section 5) plus the Section-4 applications.
    Takes no arguments and writes no files.

    Sections:
    - {b Table 1} — StateAlyzer variable categorization of the Figure-1
      load balancer.
    - {b Figure 6} — the NFactor output for [balance] (both configs).
    - {b Table 2} — LoC / slicing time / execution paths / symbolic-
      execution time, original vs slice, for the paper's two NFs and
      the extended corpus.
    - {b Accuracy} — 1000 random packets through program and model.
    - {b Path equivalence} — symbolic path sets of slice vs model.
    - {b Applications} — composition, test generation, FSMs, symbolic
      reachability.
    - {b Scaling ablation} — snort ruleset size vs path explosion.

    Absolute numbers differ from the paper (different machine, a
    reimplemented toolchain instead of LLVM/KLEE); the shapes are the
    reproduction target: slices are a few percent of the original,
    path counts collapse, symbolic execution on the slice is orders of
    magnitude faster than on the original. Performance measurement
    lives in [perfbench/]. *)

let section title =
  Fmt.pr "@.%s@.%s@.@." title (String.make (String.length title) '=')

let corpus_entry name = Option.get (Nfs.Corpus.find name)

(* One pass manager for the whole printer: sections that need the same
   NF's extraction (accuracy, applications, ...) share it through the in-memory artifact table instead of re-running
   Algorithm 1, and every exploration feeds one solver memo. *)
let mgr = Pipeline.Manager.create ()

let extract name =
  let e = corpus_entry name in
  Pipeline.Manager.extract mgr ~name (e.Nfs.Corpus.program ())

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: NFactor variable categorization (load balancer)";
  let p = Nfl.Transform.canonicalize (Nfs.Lb.program ()) in
  let t = Statealyzer.Varclass.analyze p in
  Fmt.pr "%-12s | %-10s | per-feature@." "variable" "category";
  Fmt.pr "-------------+------------+----------------------------------------@.";
  List.iter
    (fun (v, c) ->
      match c with
      | Statealyzer.Varclass.Local -> ()
      | _ ->
          let f = List.assoc v t.Statealyzer.Varclass.features in
          Fmt.pr "%-12s | %-10s | persistent=%b top-level=%b updateable=%b output-impacting=%b@." v
            (Statealyzer.Varclass.category_to_string c)
            f.Statealyzer.Varclass.persistent f.Statealyzer.Varclass.top_level
            f.Statealyzer.Varclass.updateable f.Statealyzer.Varclass.output_impacting)
    t.Statealyzer.Varclass.categories

(* ------------------------------------------------------------------ *)
(* Figure 6                                                           *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  section "Figure 6: NFactor output for balance";
  let ex = extract "balance" in
  Fmt.pr "%a" Nfactor.Model.pp ex.Nfactor.Extract.model

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: NFactor on the corpus (snort & balance are the paper's subjects)";
  print_endline Nfactor.Report.header;
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let _, row =
        Nfactor.Report.measure ~se_budget:1000 ~ex:(extract e.Nfs.Corpus.name)
          ~name:e.Nfs.Corpus.name ~source:(e.Nfs.Corpus.source ()) (e.Nfs.Corpus.program ())
      in
      print_endline (Nfactor.Report.row_to_string row))
    Nfs.Corpus.all;
  Fmt.pr "@.(LoC = non-comment source lines; slice/path = statement counts;@.";
  Fmt.pr " EP = execution paths; '>N' = budget exhausted, as the paper's '>1000'.)@."

(* ------------------------------------------------------------------ *)
(* Accuracy                                                           *)
(* ------------------------------------------------------------------ *)

let accuracy () =
  section "Accuracy: 1000 random packets, program vs model (paper Section 5)";
  Fmt.pr "%-12s %-8s %-10s %s@." "NF" "trials" "mismatches" "verdict";
  List.iter
    (fun name ->
      let ex = extract name in
      let v = Nfactor.Equiv.random_testing ~seed:2016 ~trials:1000 ex in
      Fmt.pr "%-12s %-8d %-10d %s@." name v.Nfactor.Equiv.trials
        (List.length v.Nfactor.Equiv.mismatches)
        (if Nfactor.Equiv.ok v then "outputs identical" else "MISMATCH"))
    Nfs.Corpus.names;
  Fmt.pr "@.flow-structured traffic (stateful entries):@.";
  List.iter
    (fun name ->
      let ex = extract name in
      let v = Nfactor.Equiv.flow_testing ~seed:7 ~flows:40 ~data_pkts:3 ex in
      Fmt.pr "%-12s %-8d %-10d %s@." name v.Nfactor.Equiv.trials
        (List.length v.Nfactor.Equiv.mismatches)
        (if Nfactor.Equiv.ok v then "outputs identical" else "MISMATCH"))
    Nfs.Corpus.names

let path_equivalence () =
  section "Path-set equivalence: slice paths vs model entries";
  List.iter
    (fun name ->
      let ex = extract name in
      Fmt.pr "%-12s %d path(s) — %s@." name
        (List.length ex.Nfactor.Extract.paths)
        (if Nfactor.Equiv.paths_match ex then "path sets identical" else "DIFFER"))
    Nfs.Corpus.names

(* ------------------------------------------------------------------ *)
(* Section-4 applications                                             *)
(* ------------------------------------------------------------------ *)

let applications () =
  section "Applications (paper Section 4): composition, testing, FSMs, reachability";
  (* Service-chain composition: the paper's {FW, IDS} x {LB}. *)
  let model name = (extract name).Nfactor.Extract.model in
  Fmt.pr "composition {FW, IDS} x {LB}:@.";
  List.iter
    (fun r -> Fmt.pr "  %a@." Verify.Chain.pp_ranking r)
    (Verify.Chain.compose_chains
       [ ("fw", model "firewall"); ("ids", model "snort") ]
       [ ("lb", model "lb") ]);
  (* Model-driven test generation coverage. *)
  Fmt.pr "@.test generation (entries fired / total, compliance replay):@.";
  List.iter
    (fun name ->
      let ex = extract name in
      let c = Verify.Testgen.cover ex in
      let v = Verify.Testgen.compliance ex c in
      Fmt.pr "  %-12s %d/%d entries, %d packet(s), replay %s@." name
        (List.length c.Verify.Testgen.covered)
        (Nfactor.Model.entry_count ex.Nfactor.Extract.model)
        (List.length c.Verify.Testgen.pkts)
        (if Nfactor.Equiv.ok v then "ok" else "MISMATCH"))
    Nfs.Corpus.names;
  (* Per-flow FSMs. *)
  Fmt.pr "@.per-flow FSMs (abstract states / transitions):@.";
  List.iter
    (fun name ->
      let fsm = Nfactor.Fsm.of_extraction (extract name) in
      Fmt.pr "  %-12s %d state(s), %d transition(s)@." name (Nfactor.Fsm.state_count fsm)
        (Nfactor.Fsm.transition_count fsm))
    Nfs.Corpus.names;
  (* Symbolic end-to-end classes. *)
  Fmt.pr "@.header-space classes (symbolic reachability, initial state):@.";
  List.iter
    (fun name ->
      let ex = extract name in
      let classes =
        Verify.Symreach.classes
          [ (name, ex.Nfactor.Extract.model, Nfactor.Model_interp.initial_store ex) ]
      in
      Fmt.pr "  %-12s %d forwarding class(es)@." name (List.length classes))
    Nfs.Corpus.names

(* ------------------------------------------------------------------ *)
(* Scaling ablation                                                   *)
(* ------------------------------------------------------------------ *)

(* The cause behind the paper's snort row: original-program path
   explosion scales with the ruleset, the forwarding slice does not.
   This sweep regenerates the effect as a curve. *)
let scaling () =
  section "Scaling ablation: snort ruleset size vs path explosion (slice is flat)";
  Fmt.pr "%8s | %10s %12s | %8s %12s@." "rules" "EP orig" "SE orig (ms)" "EP slice" "SE slice (ms)";
  List.iter
    (fun rules ->
      let p = Nfs.Snort_lite.program_with ~rules () in
      let ex = Nfactor.Extract.run ~name:"snort" p in
      let budget = { Symexec.Explore.default_config with Symexec.Explore.max_paths = 1000 } in
      let (_, orig_stats), orig_t =
        Nfactor.Report.time (fun () -> Nfactor.Report.explore_original ~config:budget ex)
      in
      let (_, slice_stats), slice_t =
        Nfactor.Report.time (fun () -> Nfactor.Report.explore_slice ex)
      in
      let ep_orig =
        if orig_stats.Symexec.Explore.overflowed then
          Printf.sprintf ">%d" orig_stats.Symexec.Explore.paths
        else string_of_int orig_stats.Symexec.Explore.paths
      in
      Fmt.pr "%8d | %10s %12.2f | %8d %12.2f@." rules ep_orig (orig_t *. 1e3)
        slice_stats.Symexec.Explore.paths (slice_t *. 1e3))
    [ 0; 1; 2; 4; 8; 16; 64; 300 ]

let () =
  (* Same batch-tool GC tuning as the CLI: synthesis is
     allocation-rate-bound. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  table1 ();
  figure6 ();
  table2 ();
  accuracy ();
  path_equivalence ();
  applications ();
  scaling ();
  Fmt.pr "@.done.@."
