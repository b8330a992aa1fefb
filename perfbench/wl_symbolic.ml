(* The symbolic part of the synth workload: the paper's Table 2 sweep —
   [Report.measure] on every corpus NF at the default original-program
   budget of 1000 paths, each NF freshly extracted by a new pass
   manager, as the [report] command does — then a fixed invariant set
   decided by [Verify.Invariant]. *)

open Nfactor

let se_budget = 1000

type inv = {
  id : string;
  nodes : Verify.Invariant.nodes;
  prop : Verify.Invariant.prop;
  expect : Verify.Invariant.status;
}

let chain_nodes m nfs names =
  List.map
    (fun n ->
      let nf = List.find (fun (x : Nf_source.t) -> x.Nf_source.name = n) nfs in
      let ex = Pipeline.Manager.extract m ~name:n nf.Nf_source.program in
      (n, ex.Extract.model, Model_interp.initial_store ex))
    names

let setup nfs =
  let m = Pipeline.Manager.create () in
  let invs =
    List.map
      (fun (id, chain, prop, expect) ->
        let prop =
          match Verify.Invariant.parse_prop prop with
          | Ok p -> p
          | Error e -> failwith ("invariant property: " ^ e)
        in
        let expect =
          match expect with
          | `Proven -> Verify.Invariant.Proven
          | `Violated -> Verify.Invariant.Violated
        in
        { id; nodes = chain_nodes m nfs chain; prop; expect })
      Catalog.invariants
  in
  invs

let fresh_chain nodes =
  Verify.Network.chain (List.map (fun (id, m, s) -> Verify.Network.node id m s) nodes)

(* A Violated verdict must come with an input whose replay through a
   fresh interpreter chain, and through the compiled chain, emits a
   packet satisfying the property. *)
let replays inv (o : Verify.Invariant.outcome) =
  match o.Verify.Invariant.counterexample with
  | None -> false
  | Some p ->
      let outs, _ = Verify.Network.push (fresh_chain inv.nodes) p in
      let compiled =
        Nfactor_runtime.Chainengine.step
          (Nfactor_runtime.Chainengine.create (Nfactor_runtime.Chainplan.link inv.nodes))
          p
      in
      List.exists (Verify.Invariant.holds_on inv.prop) outs
      && List.exists (Verify.Invariant.holds_on inv.prop) compiled

(* A Proven verdict is sampled independently: seeded random packets
   through the interpreter chain must never emit a packet with the
   property. *)
let sampled_clean c inv =
  let chain = fresh_chain inv.nodes in
  List.for_all
    (fun p ->
      let outs, _ = Verify.Network.push chain p in
      not (List.exists (Verify.Invariant.holds_on inv.prop) outs))
    (Packet.Traffic.random_stream ~seed:c.Ctx.seed ~n:2000 ())

(* The explorations [Report.measure] runs, repeated as direct calls on
   a fresh extraction so each is timed and its statistics counted; the
   counters also include the extraction's own (merging) exploration. *)
let explore_layers c (nf : Nf_source.t) =
  let m = Pipeline.Manager.create () in
  let ex = Pipeline.Manager.extract_source m ~name:nf.Nf_source.name nf.Nf_source.source in
  let memo = ex.Extract.solver_memo in
  let per_nf = List.mem nf.Nf_source.name Catalog.explore_rows in
  let timed name f =
    Ctx.timed c name (fun () ->
        if per_nf then Ctx.timed c (name ^ "." ^ nf.Nf_source.name) f else f ())
  in
  ignore
    (Ctx.timed c "slicing.slice_ms" (fun () ->
         Statealyzer.Varclass.analyze (Extract.ensure_canonical nf.Nf_source.program)));
  let _, slice_stats = timed "symexec.explore_slice_ms" (fun () -> Report.explore_slice ~memo ex) in
  let config = { Symexec.Explore.default_config with Symexec.Explore.max_paths = se_budget } in
  let _, orig_stats =
    timed "symexec.explore_orig_ms" (fun () -> Report.explore_original ~config ~memo ex)
  in
  let joins_t = Unix.gettimeofday () in
  ignore (Ctx.timed c "cfg.joins_ms" (fun () -> Joins.of_block ex.Extract.sliced_body));
  if ex.Extract.stats.Symexec.Explore.merges = 0 then
    Ctx.add_time c "cfg.joins_nomerge_ms" (Unix.gettimeofday () -. joins_t);
  List.iter
    (fun (s : Symexec.Explore.stats) ->
      Ctx.count c "symexec.forks" (float_of_int s.Symexec.Explore.forks);
      Ctx.count c "symexec.merges" (float_of_int s.Symexec.Explore.merges);
      Ctx.count c "symexec.prunes" (float_of_int s.Symexec.Explore.prunes);
      Ctx.count c "symexec.overflows" (if s.Symexec.Explore.overflowed then 1. else 0.);
      Ctx.count c "symexec.solver_calls" (float_of_int s.Symexec.Explore.solver_calls);
      Ctx.count c "symexec.solver_cache_hits" (float_of_int s.Symexec.Explore.solver_cache_hits);
      Ctx.count c "symexec.solver_cache_misses"
        (float_of_int s.Symexec.Explore.solver_cache_misses);
      Ctx.add_time c "symexec.solver_ms" s.Symexec.Explore.solver_time_s)
    [ ex.Extract.stats; slice_stats; orig_stats ]

let bound_count = function Report.Exact n | Report.More_than n -> float_of_int n

(* Table 2 sweeps and invariant-set decisions per synth sample: one
   pass takes about a tenth of the sample, so two give these units
   twice the samples at small cost. *)
let reps = 2

(* This workload part's passes in one synth sample. Counters describe
   one pass: later passes' counts are dropped. *)
let sample (c : Ctx.t) ~nfs ~invs ~first =
  for rep = 1 to reps do
    let counts = c.Ctx.cur_counts in
    let t = Unix.gettimeofday () in
    let rows =
      Ctx.timed c "table2_s" (fun () ->
          let m = Pipeline.Manager.create () in
          List.map
            (fun (nf : Nf_source.t) ->
              let t = Unix.gettimeofday () in
              let ex =
                Pipeline.Manager.extract_source m ~name:nf.Nf_source.name nf.Nf_source.source
              in
              let row =
                snd
                  (Report.measure ~se_budget ~ex ~name:nf.Nf_source.name
                     ~source:nf.Nf_source.source nf.Nf_source.program)
              in
              Ctx.unit_time c "phase3_s" nf.Nf_source.name (Unix.gettimeofday () -. t);
              row)
            nfs)
    in
    let dt = Unix.gettimeofday () -. t in
    Ctx.e2e c "table2_s" dt;
    Ctx.e2e c "phase3_s" dt;
    let t = Unix.gettimeofday () in
    let outcomes =
      Ctx.timed c "verify_s" (fun () ->
          List.map
            (fun inv ->
              let t = Unix.gettimeofday () in
              let o =
                Ctx.timed c ("verify.invariant_ms." ^ inv.id) (fun () ->
                    Verify.Invariant.never_reaches inv.nodes inv.prop)
              in
              Ctx.unit_time c "phase4_s" inv.id (Unix.gettimeofday () -. t);
              o)
            invs)
    in
    let dt = Unix.gettimeofday () -. t in
    Ctx.e2e c "verify_s" dt;
    Ctx.e2e c "phase4_s" dt;
    List.iter
      (fun (r : Report.row) ->
        Ctx.count c "symexec.paths_orig" (bound_count r.Report.ep_orig);
        Ctx.count c "symexec.paths_slice" (bound_count r.Report.ep_slice))
      rows;
    List.iter2
      (fun inv (o : Verify.Invariant.outcome) ->
        Ctx.count c "verify.classes" (float_of_int o.Verify.Invariant.classes_checked);
        Ctx.check c
          (o.Verify.Invariant.status = inv.expect)
          (Printf.sprintf "%s: verdict %s equals the known answer" inv.id
             (Verify.Invariant.status_string o.Verify.Invariant.status));
        if inv.expect = Verify.Invariant.Violated then
          Ctx.check c (replays inv o)
            (Printf.sprintf "%s: counterexample replays through both chains" inv.id)
        else if first && rep = 1 then
          Ctx.check c (sampled_clean c inv)
            (Printf.sprintf "%s: no sampled packet violates the proven property" inv.id))
      invs outcomes;
    if c.Ctx.traced && rep = 1 then List.iter (explore_layers c) nfs;
    if rep > 1 then c.Ctx.cur_counts <- counts
  done

let finish c = Ctx.set_sums c [ ("phase3_s", "table2_s"); ("phase4_s", "verify_s") ]
